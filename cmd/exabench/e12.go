package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"exadla/internal/dist"
	"exadla/internal/matgen"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// runE12 exercises the cluster-wide tracer: a coordinator and three
// workers (one killed mid-run, all behind seeded wire chaos) factor a
// matrix while every process records lease-lifecycle spans; the worker
// shards ride home on heartbeats, get re-based onto the coordinator's
// clock, and merge into one timeline. The experiment prints the
// per-process compute/fetch/commit/idle split and the comm-aware speedup
// bound, and writes the trace as E12_cluster_trace.json (Perfetto) and
// E12_cluster_events.json (native, for exatrace -cluster).
func runE12(quick bool) {
	n := pick(quick, 256, 512)
	nb := 32

	rng := rand.New(rand.NewSource(2016))
	aD := matgen.DiagDomSPD[float64](rng, n)
	c, err := runCluster(chaosOptions(tile.FromColMajor(n, n, aD, n, nb)), []dist.WorkerOptions{
		{Chaos: wireChaos(0.02, 1), KillAfter: 4},
		{Chaos: wireChaos(0.02, 2)},
		{Chaos: wireChaos(0.02, 3)},
	})
	if c == nil {
		fmt.Printf("coordinator: %v\n", err)
		return
	}
	if err != nil {
		fmt.Printf("run: %v\n", err)
		return
	}

	log := c.ClusterLog()
	cs := log.AnalyzeCluster()
	fmt.Printf("merged trace: %d processes, span %.3fs, %d tasks completed\n",
		len(cs.Procs), cs.Span, c.Stats().TasksCompleted)
	tb := newTable("process", "tasks", "compute s", "fetch s", "commit s", "idle s", "fetched B", "committed B")
	for _, p := range cs.Procs {
		name := "coordinator"
		if p.Proc > 0 {
			name = fmt.Sprintf("worker %d", p.Proc-1)
		}
		tb.add(name, p.Tasks, p.Compute, p.Fetch, p.Commit, p.Idle, p.BytesFetched, p.BytesCommitted)
	}
	tb.print()

	if len(cs.Faults) > 0 {
		fmt.Printf("fault instants:")
		for _, k := range []string{trace.PhaseEvicted, trace.PhaseReaped, trace.PhaseStale, trace.PhaseChaos} {
			if cs.Faults[k] > 0 {
				fmt.Printf(" %s ×%d", k, cs.Faults[k])
			}
		}
		fmt.Println()
	}

	d := log.AnalyzeDAG()
	if d.TInf > 0 {
		p := 3
		fmt.Printf("comm-aware critical path: T∞ %.4fs vs %.4fs compute-only; "+
			"speedup bound on %d workers %.2fx comm-limited vs %.2fx DAG-limited\n",
			d.TCommInf, d.TInf, p, d.CommSpeedupBound(p), d.SpeedupBound(p))
	}

	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{"E12_cluster_trace.json", log.WriteChrome},
		{"E12_cluster_events.json", log.WriteJSON},
	} {
		if err := writeFile(out.path, out.write); err != nil {
			fmt.Printf("write %s: %v\n", out.path, err)
			continue
		}
		fmt.Printf("wrote %s\n", out.path)
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
