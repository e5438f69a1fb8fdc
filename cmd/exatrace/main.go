// Command exatrace records the task DAG of one tiled factorization,
// simulates it under a chosen worker count, and renders an ASCII Gantt
// chart plus utilization statistics — the quickest way to *see* the
// difference between dataflow and fork-join scheduling.
//
// Usage:
//
//	exatrace -op cholesky -n 1024 -nb 96 -workers 8
//	exatrace -op qr -n 512 -forkjoin
//
// With -cluster it instead summarizes a merged multi-process trace (the
// native events JSON written by exadist -events-out or the obs server's
// /trace?scope=cluster&format=events): per-process compute/fetch/commit/
// idle split, fault counts, the comm-aware critical path, and the top
// tile-transfer edges by bytes.
//
//	exatrace -cluster cluster-events.json
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

func main() {
	op := flag.String("op", "cholesky", "operation: cholesky, lu, or qr")
	n := flag.Int("n", 1024, "problem size")
	nb := flag.Int("nb", 96, "tile size")
	workers := flag.Int("workers", 8, "virtual workers for the simulated schedule")
	forkJoin := flag.Bool("forkjoin", false, "use the block-synchronous variant")
	width := flag.Int("width", 110, "Gantt chart width in columns")
	chrome := flag.String("chrome", "", "also write a Chrome trace-event JSON to this path")
	cluster := flag.String("cluster", "", "summarize a merged cluster trace (native events JSON) instead of simulating")
	flag.Parse()

	if *cluster != "" {
		if err := summarizeCluster(*cluster, *workers, *chrome); err != nil {
			fmt.Fprintln(os.Stderr, "exatrace:", err)
			os.Exit(1)
		}
		return
	}

	rng := rand.New(rand.NewSource(1))
	var aD []float64
	switch *op {
	case "cholesky":
		aD = matgen.DiagDomSPD[float64](rng, *n)
	case "lu", "qr":
		aD = matgen.Dense[float64](rng, *n, *n)
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *op)
		os.Exit(2)
	}
	a := tile.FromColMajor(*n, *n, aD, *n, *nb)

	rec := sched.NewRecorder()
	// The -op names are the tile program names core.Factor takes.
	if _, err := core.Factor(rec, *op, a, nil, *forkJoin); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	g := rec.Graph()
	variant := "dataflow"
	if *forkJoin {
		variant = "fork-join"
	}
	fmt.Printf("%s %s: n=%d nb=%d — %d tasks, %.4fs total work, %.4fs critical path\n",
		*op, variant, *n, *nb, g.Tasks(), g.TotalWork(), g.CriticalPath())

	log, res := trace.Simulate(g, *workers)
	fmt.Printf("simulated on %d workers: makespan %.4fs, utilization %.1f%%, speedup %.2fx\n\n",
		*workers, res.Makespan, 100*res.Utilization, g.TotalWork()/res.Makespan)
	printCriticalPath(log, *workers)
	if err := log.Gantt(os.Stdout, *width); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := log.WriteChrome(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open at ui.perfetto.dev)\n", *chrome)
	}
}

// summarizeCluster loads a merged cluster trace (native events JSON) and
// prints the per-process time split, fault counts, the comm-aware critical
// path, and the heaviest tile-transfer edges. With -chrome it also
// re-exports the Perfetto view.
func summarizeCluster(path string, workers int, chrome string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	log, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}

	cs := log.AnalyzeCluster()
	fmt.Printf("cluster trace %s: %d processes, span %.4fs\n", path, len(cs.Procs), cs.Span)
	for _, p := range cs.Procs {
		name := "coordinator"
		if p.Proc > 0 {
			name = fmt.Sprintf("worker %d", p.Proc-1)
		}
		fmt.Printf("  %-12s %4d tasks  compute %8.4fs  fetch %8.4fs  commit %8.4fs  idle %8.4fs",
			name, p.Tasks, p.Compute, p.Fetch, p.Commit, p.Idle)
		if p.BytesFetched > 0 || p.BytesCommitted > 0 {
			fmt.Printf("  (%s fetched, %s committed)", fmtBytes(p.BytesFetched), fmtBytes(p.BytesCommitted))
		}
		fmt.Println()
	}

	if len(cs.Faults) > 0 {
		kinds := make([]string, 0, len(cs.Faults))
		for k := range cs.Faults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Printf("faults:")
		for _, k := range kinds {
			fmt.Printf(" %s ×%d", k, cs.Faults[k])
		}
		fmt.Println()
	}

	d := log.AnalyzeDAG()
	if d.TInf > 0 {
		fmt.Printf("critical path: T1 %.4fs, T∞ %.4fs (parallelism %.2f)", d.T1, d.TInf, d.T1/d.TInf)
		if d.TCommInf > d.TInf {
			fmt.Printf(", comm-aware T∞ %.4fs", d.TCommInf)
		}
		fmt.Println()
		dag, comm := d.SpeedupBound(workers), d.CommSpeedupBound(workers)
		fmt.Printf("speedup bound on %d workers: %.2fx DAG-limited", workers, dag)
		if comm < dag {
			fmt.Printf(", %.2fx comm-limited (communication costs %.0f%% of the bound)",
				comm, 100*(1-comm/dag))
		}
		fmt.Println()
		if d.BytesFetched > 0 {
			fmt.Printf("traffic on the task path: %s fetched, %.4fs fetching, %.4fs committing\n",
				fmtBytes(d.BytesFetched), d.FetchTime, d.CommitTime)
		}
	}

	if len(cs.Transfers) > 0 {
		top := cs.Transfers
		if len(top) > 8 {
			top = top[:8]
		}
		fmt.Printf("top tile transfers by bytes:\n")
		for _, t := range top {
			fmt.Printf("  tile(%d,%d)  %s over %d fetches\n", t.Tile[0], t.Tile[1], fmtBytes(t.Bytes), t.Count)
		}
	}

	if chrome != "" {
		out, err := os.Create(chrome)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := log.WriteChromeCluster(out); err != nil {
			return err
		}
		fmt.Printf("wrote Perfetto cluster trace to %s (open at ui.perfetto.dev)\n", chrome)
	}
	return nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// printCriticalPath reports the work/span decomposition of the traced
// schedule: T∞ and its per-kernel composition, Brent's makespan bounds, and
// how the achieved speedup compares to the DAG-limited bound min(p, T₁/T∞).
func printCriticalPath(log *trace.Log, workers int) {
	d := log.AnalyzeDAG()
	if d.TInf <= 0 {
		return
	}
	fmt.Printf("critical path: %.4fs across %d tasks (T1/T∞ = %.2f)\n",
		d.TInf, d.CritTasks, d.T1/d.TInf)
	type share struct {
		name string
		frac float64
	}
	shares := make([]share, 0, len(d.CritShare))
	for k, v := range d.CritShare {
		shares = append(shares, share{k, v})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].frac != shares[j].frac {
			return shares[i].frac > shares[j].frac
		}
		return shares[i].name < shares[j].name
	})
	fmt.Printf("critical-path share:")
	for _, s := range shares {
		fmt.Printf(" %s %.1f%%", s.name, 100*s.frac)
	}
	fmt.Println()
	fmt.Printf("Brent bounds on %d workers: makespan in [%.4fs, %.4fs]\n",
		workers, math.Max(d.T1/float64(workers), d.TInf), d.BrentBound(workers))
	bound := d.SpeedupBound(workers)
	fmt.Printf("speedup %.2fx of %.2fx DAG-limited (%.0f%%)\n\n",
		d.Speedup(), bound, 100*d.Speedup()/bound)
}
