package main

import (
	"fmt"
	"math/rand"
	"time"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// distFaultSweep is E11, the distributed act of the fault demos: one coordinator
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
	scenarios := []scenario{
		{name: "clean", workers: make([]dist.WorkerOptions, 3)},
		{name: "kill 1 of 3", workers: []dist.WorkerOptions{{KillAfter: 3}, {}, {}}},
		{name: "kill 2 of 3", workers: []dist.WorkerOptions{{KillAfter: 3}, {KillAfter: 5}, {}}},
		{name: "hang 1 of 3", workers: []dist.WorkerOptions{{HangAfter: 3, HangFor: 600 * time.Millisecond}, {}, {}}},
		{name: "wire chaos ×3", workers: []dist.WorkerOptions{{Chaos: wireChaos(0.03, 1)}, {Chaos: wireChaos(0.03, 2)}, {Chaos: wireChaos(0.03, 3)}}},
		{name: "writeback + kill", workers: []dist.WorkerOptions{{KillAfter: 4}, {}, {}}, writeBack: true},
		{name: "kill all → local", workers: []dist.WorkerOptions{{KillAfter: 1}, {KillAfter: 2}}},
	}

	tb := newTable("scenario", "lost", "reexec", "local", "expired", "rejected", "rebuilt", "rpc retries", "factor")
	for _, sc := range scenarios {
		opt := chaosOptions(tile.FromColMajor(n, n, aD, n, nb))
		opt.WriteBack = sc.writeBack
		c, runErr := runCluster(opt, sc.workers)
		if c == nil {
			tb.add(sc.name, "-", "-", "-", "-", "-", "-", "-", "coordinator: "+runErr.Error())
			continue
		}
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
