package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// The runners every experiment shares: a recorded factorization for the
// modeled tables, and an in-process dist cluster for the distributed ones.

// simulate replays g on p virtual workers and measures the schedule.
func simulate(g *sched.Graph, p int) trace.DAGStats {
	return trace.NewLog(sched.Simulate(g, p)...).AnalyzeDAG()
}

// record factors a in place with op's tile program (block-synchronous with
// forkJoin set) on a sched.Recorder, one task after another on this
// goroutine, and returns the task graph with each task's measured cost,
// and the factor.
func record(op string, a *tile.Matrix[float64], forkJoin bool) (*sched.Graph, *core.Factors[float64], error) {
	rec := sched.NewRecorder()
	f, err := core.Factor(rec, op, a, nil, forkJoin)
	return rec.Graph(), f, err
}

// chaosOptions are the dist options of the chaos experiments, E11 and E12:
// a Cholesky of a with 500 ms leases, a worker declared dead after 200 ms
// of heartbeat silence, and the coordinator going local after 50 ms
// without one.
func chaosOptions(a *tile.Matrix[float64]) dist.Options {
	return dist.Options{
		Op: dist.OpCholesky, A: a,
		Lease:      500 * time.Millisecond,
		DeadAfter:  200 * time.Millisecond,
		LocalDelay: 50 * time.Millisecond,
		Poll:       time.Millisecond,
	}
}

// wireChaos is a worker's seeded net/rpc chaos in the chaos experiments:
// sends and replies dropped and messages duplicated with probability p
// each, and one message in 20 delayed by up to 2 ms.
func wireChaos(p float64, seed int64) dist.NetChaos {
	return dist.NetChaos{DropSend: p, DropReply: p, Dup: p,
		Delay: 0.05, MaxDelay: 2 * time.Millisecond, Seed: seed}
}

// cluster is one dist job run in process: a coordinator on a loopback port
// and one worker goroutine per WorkerOptions.
type cluster struct {
	*dist.Coordinator
	workers sync.WaitGroup
}

// startCluster starts the coordinator for opt and its workers; the caller
// runs the job, then waits for the workers.
func startCluster(opt dist.Options, workers []dist.WorkerOptions) (*cluster, error) {
	c, err := dist.NewCoordinator("127.0.0.1:0", opt)
	if err != nil {
		return nil, err
	}
	cl := &cluster{Coordinator: c}
	for _, w := range workers {
		cl.workers.Add(1)
		go func() {
			defer cl.workers.Done()
			if err := dist.RunWorker(c.Addr(), w); err != nil && !errors.Is(err, dist.ErrKilled) {
				fmt.Printf("worker exit: %v\n", err)
			}
		}()
	}
	return cl, nil
}

// runCluster runs opt's job on workers in process, waits for every worker
// to exit, and returns the finished cluster, for its Result, Stats and
// ClusterLog, with Run's error; it is nil only when the coordinator did
// not start.
func runCluster(opt dist.Options, workers []dist.WorkerOptions) (*cluster, error) {
	cl, err := startCluster(opt, workers)
	if err != nil {
		return nil, err
	}
	err = cl.Run()
	cl.workers.Wait()
	return cl, err
}
