package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// distFaultSweep is the distributed-runtime act of -faults: one coordinator
// and a small worker fleet (in-process goroutines here; cmd/exadist runs
// the same runtime as real processes) driven through the full fault menu —
// worker kills, a hang past the lease, seeded wire chaos, write-back
// residency with a death, and total fleet loss. Every scenario must end
// with a factor bitwise identical to the clean single-process run; the
// table records what the runtime had to do to get there.
func distFaultSweep(quick bool) {
	n := pick(quick, 256, 512)
	nb := 32

	rng := rand.New(rand.NewSource(2016))
	aD := matgen.DiagDomSPD[float64](rng, n)

	// Clean single-process reference.
	want, err := plainFactor(core.OpCholesky, aD, n, nb, 4)
	if err != nil {
		fmt.Printf("reference factorization failed: %v\n", err)
		return
	}

	type scenario struct {
		name      string
		workers   []dist.WorkerOptions
		writeBack bool
	}
	chaos := func(seed int64) dist.NetChaos {
		return dist.NetChaos{DropSend: 0.03, DropReply: 0.03, Dup: 0.03,
			Delay: 0.05, MaxDelay: 2 * time.Millisecond, Seed: seed}
	}
	scenarios := []scenario{
		{name: "clean", workers: make([]dist.WorkerOptions, 3)},
		{name: "kill 1 of 3", workers: []dist.WorkerOptions{{KillAfter: 3}, {}, {}}},
		{name: "kill 2 of 3", workers: []dist.WorkerOptions{{KillAfter: 3}, {KillAfter: 5}, {}}},
		{name: "hang 1 of 3", workers: []dist.WorkerOptions{{HangAfter: 3, HangFor: 600 * time.Millisecond}, {}, {}}},
		{name: "wire chaos ×3", workers: []dist.WorkerOptions{{Chaos: chaos(1)}, {Chaos: chaos(2)}, {Chaos: chaos(3)}}},
		{name: "writeback + kill", workers: []dist.WorkerOptions{{KillAfter: 4}, {}, {}}, writeBack: true},
		{name: "kill all → local", workers: []dist.WorkerOptions{{KillAfter: 1}, {KillAfter: 2}}},
	}

	tb := newTable("scenario", "lost", "reexec", "local", "expired", "rejected", "rebuilt", "rpc retries", "factor")
	for _, sc := range scenarios {
		a := tile.FromColMajor(n, n, aD, n, nb)
		opt := dist.Options{
			Op: dist.OpCholesky, A: a,
			WriteBack:  sc.writeBack,
			Lease:      500 * time.Millisecond,
			DeadAfter:  200 * time.Millisecond,
			LocalDelay: 50 * time.Millisecond,
			Poll:       time.Millisecond,
		}
		c, err := dist.NewCoordinator("127.0.0.1:0", opt)
		if err != nil {
			tb.add(sc.name, "-", "-", "-", "-", "-", "-", "-", "coordinator: "+err.Error())
			continue
		}
		var wg sync.WaitGroup
		for i := range sc.workers {
			wg.Add(1)
			go func(w dist.WorkerOptions) {
				defer wg.Done()
				if err := dist.RunWorker(c.Addr(), w); err != nil && !errors.Is(err, dist.ErrKilled) {
					fmt.Printf("%s: worker exit: %v\n", sc.name, err)
				}
			}(sc.workers[i])
		}
		runErr := c.Run()
		wg.Wait()
		status := "bitwise identical"
		if runErr != nil {
			status = "FAILED: " + runErr.Error()
		} else if i := firstBitDiff(c.Result().ToColMajor(), want); i >= 0 {
			status = fmt.Sprintf("DIVERGED at element %d", i)
		}
		s := c.Stats()
		tb.add(sc.name, s.WorkersLost, s.TasksReexecuted, s.TasksLocal,
			s.LeasesExpired, s.CommitsRejected, s.TilesRebuilt, s.RPCRetries, status)
	}
	tb.print()
}
