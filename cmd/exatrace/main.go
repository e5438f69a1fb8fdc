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
// /trace?format=events): per-process compute/fetch/commit/idle split,
// fault counts, the comm-aware critical path, and the top tile-transfer
// edges by bytes. Both modes write the same Chrome export with -chrome.
//
//	exatrace -cluster cluster-events.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exatrace:", err)
		os.Exit(1)
	}
}

// run parses args and executes one exatrace invocation, writing its report
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exatrace", flag.ContinueOnError)
	op := fs.String("op", "cholesky", "operation: cholesky, lu, or qr")
	n := fs.Int("n", 1024, "problem size")
	nb := fs.Int("nb", 96, "tile size")
	workers := fs.Int("workers", 8, "virtual workers for the simulated schedule")
	forkJoin := fs.Bool("forkjoin", false, "use the block-synchronous variant")
	width := fs.Int("width", 110, "Gantt chart width in columns")
	chrome := fs.String("chrome", "", "also write a Chrome trace-event JSON to this path")
	cluster := fs.String("cluster", "", "summarize a merged cluster trace (native events JSON) instead of simulating")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	var log *trace.Log
	if *cluster != "" {
		var err error
		if log, err = summarizeCluster(stdout, *cluster, *workers); err != nil {
			return err
		}
	} else {
		rng := rand.New(rand.NewSource(1))
		var aD []float64
		switch *op {
		case "cholesky":
			aD = matgen.DiagDomSPD[float64](rng, *n)
		case "lu", "qr":
			aD = matgen.Dense[float64](rng, *n, *n)
		default:
			return fmt.Errorf("unknown op %q", *op)
		}
		a := tile.FromColMajor(*n, *n, aD, *n, *nb)

		rec := sched.NewRecorder()
		// The -op names are the tile program names core.Factor takes.
		if _, err := core.Factor(rec, *op, a, nil, *forkJoin); err != nil {
			return err
		}

		variant := "dataflow"
		if *forkJoin {
			variant = "fork-join"
		}
		log = trace.NewLog(sched.Simulate(rec.Graph(), *workers)...)
		d := log.AnalyzeDAG()
		fmt.Fprintf(stdout, "%s %s: n=%d nb=%d — %d tasks, %.4fs total work, %.4fs critical path\n",
			*op, variant, *n, *nb, d.Tasks, d.T1, d.TInf)
		fmt.Fprintf(stdout, "simulated on %d workers: makespan %.4fs, utilization %.1f%%, speedup %.2fx\n\n",
			*workers, d.Makespan, 100*d.Speedup()/float64(*workers), d.Speedup())
		printDAG(stdout, d, *workers)
		fmt.Fprintln(stdout)
		if err := log.Gantt(stdout, *width); err != nil {
			return err
		}
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := log.WriteChrome(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote Chrome trace to %s (open at ui.perfetto.dev)\n", *chrome)
	}
	return nil
}

// summarizeCluster loads a merged cluster trace (native events JSON) and
// prints the per-process time split, fault counts, the critical path, and
// the heaviest tile-transfer edges. It returns the loaded log.
func summarizeCluster(w io.Writer, path string, workers int) (*trace.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	log, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		return nil, err
	}

	cs := log.AnalyzeCluster()
	fmt.Fprintf(w, "cluster trace %s: %d processes, span %.4fs\n", path, len(cs.Procs), cs.Span)
	for _, p := range cs.Procs {
		name := "coordinator"
		if p.Proc > 0 {
			name = fmt.Sprintf("worker %d", p.Proc-1)
		}
		fmt.Fprintf(w, "  %-12s %4d tasks  compute %8.4fs  fetch %8.4fs  commit %8.4fs  idle %8.4fs",
			name, p.Tasks, p.Compute, p.Fetch, p.Commit, p.Idle)
		if p.BytesFetched > 0 || p.BytesCommitted > 0 {
			fmt.Fprintf(w, "  (%s fetched, %s committed)", fmtBytes(p.BytesFetched), fmtBytes(p.BytesCommitted))
		}
		fmt.Fprintln(w)
	}

	if len(cs.Faults) > 0 {
		kinds := make([]string, 0, len(cs.Faults))
		for k := range cs.Faults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "faults:")
		for _, k := range kinds {
			fmt.Fprintf(w, " %s ×%d", k, cs.Faults[k])
		}
		fmt.Fprintln(w)
	}

	printDAG(w, log.AnalyzeDAG(), workers)

	if len(cs.Transfers) > 0 {
		top := cs.Transfers
		if len(top) > 8 {
			top = top[:8]
		}
		fmt.Fprintf(w, "top tile transfers by bytes:\n")
		for _, t := range top {
			fmt.Fprintf(w, "  tile(%d,%d)  %s over %d fetches\n", t.Tile[0], t.Tile[1], fmtBytes(t.Bytes), t.Count)
		}
	}
	return log, nil
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

// printDAG reports the work/span decomposition of a trace: T₁, T∞ and (for
// cluster traces) the comm-aware T∞, T∞'s per-kernel composition, Brent's
// makespan bounds, how the achieved speedup compares to the DAG-limited
// bound min(p, T₁/T∞) and, when communication tightens it, the
// comm-limited bound, and the bytes moved on the task path.
func printDAG(w io.Writer, d trace.DAGStats, workers int) {
	if d.TInf <= 0 {
		return
	}
	fmt.Fprintf(w, "critical path: T1 %.4fs, T∞ %.4fs across %d tasks (parallelism %.2f)",
		d.T1, d.TInf, d.CritTasks, d.T1/d.TInf)
	if d.TCommInf > d.TInf {
		fmt.Fprintf(w, ", comm-aware T∞ %.4fs", d.TCommInf)
	}
	fmt.Fprintln(w)
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
	fmt.Fprintf(w, "critical-path share:")
	for _, s := range shares {
		fmt.Fprintf(w, " %s %.1f%%", s.name, 100*s.frac)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Brent bounds on %d workers: makespan in [%.4fs, %.4fs]\n",
		workers, math.Max(d.T1/float64(workers), d.TInf), d.BrentBound(workers))
	dag, comm := d.SpeedupBound(workers), d.CommSpeedupBound(workers)
	fmt.Fprintf(w, "speedup %.2fx of %.2fx DAG-limited (%.0f%%)", d.Speedup(), dag, 100*d.Speedup()/dag)
	if comm < dag {
		fmt.Fprintf(w, ", %.2fx comm-limited (communication costs %.0f%% of the bound)",
			comm, 100*(1-comm/dag))
	}
	fmt.Fprintln(w)
	if d.BytesFetched > 0 {
		fmt.Fprintf(w, "traffic on the task path: %s fetched, %.4fs fetching, %.4fs committing\n",
			fmtBytes(d.BytesFetched), d.FetchTime, d.CommitTime)
	}
}
