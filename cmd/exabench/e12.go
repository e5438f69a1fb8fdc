package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

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
	a := tile.FromColMajor(n, n, aD, n, nb)

	chaos := func(seed int64) dist.NetChaos {
		return dist.NetChaos{DropSend: 0.02, DropReply: 0.02, Dup: 0.02,
			Delay: 0.05, MaxDelay: 2 * time.Millisecond, Seed: seed}
	}
	c, err := dist.NewCoordinator("127.0.0.1:0", dist.Options{
		Op: dist.OpCholesky, A: a,
		Lease:      500 * time.Millisecond,
		DeadAfter:  200 * time.Millisecond,
		LocalDelay: 50 * time.Millisecond,
		Poll:       time.Millisecond,
	})
	if err != nil {
		fmt.Printf("coordinator: %v\n", err)
		return
	}
	workers := []dist.WorkerOptions{
		{Chaos: chaos(1), KillAfter: 4},
		{Chaos: chaos(2)},
		{Chaos: chaos(3)},
	}
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(w dist.WorkerOptions) {
			defer wg.Done()
			if err := dist.RunWorker(c.Addr(), w); err != nil && !errors.Is(err, dist.ErrKilled) {
				fmt.Printf("worker exit: %v\n", err)
			}
		}(workers[i])
	}
	if err := c.Run(); err != nil {
		fmt.Printf("run: %v\n", err)
		wg.Wait()
		return
	}
	wg.Wait()

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
		write func(*trace.Log) error
	}{
		{"E12_cluster_trace.json", func(l *trace.Log) error {
			f, err := os.Create("E12_cluster_trace.json")
			if err != nil {
				return err
			}
			defer f.Close()
			return l.WriteChrome(f)
		}},
		{"E12_cluster_events.json", func(l *trace.Log) error {
			f, err := os.Create("E12_cluster_events.json")
			if err != nil {
				return err
			}
			defer f.Close()
			return l.WriteJSON(f)
		}},
	} {
		if err := out.write(log); err != nil {
			fmt.Printf("write %s: %v\n", out.path, err)
			continue
		}
		fmt.Printf("wrote %s\n", out.path)
	}
}
