package dist_test

// Robustness tests for slow, lying, and flapping nodes: speculative twin
// leases rescuing stragglers, end-to-end CRC integrity against wire
// corruption and at-rest rot, partition-tolerant rejoin, and one all-chaos
// soak asserting the whole stack stays bitwise deterministic.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"exadla/internal/dist"
	"exadla/internal/trace"
)

// countPhase counts merged-trace events with the given fault phase.
func countPhase(l *trace.Log, phase string) int {
	n := 0
	for _, e := range l.Events() {
		if e.Phase == phase {
			n++
		}
	}
	return n
}

// TestDistSpeculationRescuesHungWorker: a worker hangs mid-lease with
// heartbeats still flowing, under a lease far too long for reaping to save
// the run. Speculation must notice the straggler against the kernel's
// duration history, twin the task onto an idle worker, and let the twin's
// commit win — completing the job in a fraction of the lease, bitwise
// identical, with the hung worker's late commit absorbed as a duplicate.
func TestDistSpeculationRescuesHungWorker(t *testing.T) {
	const seed, n, nb = 31, 128, 16 // 120 tasks: ~40 grants per worker
	want := choleskyLocal(t, seed, n, nb)
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.Lease = 10 * time.Second // reaping must NOT be the rescuer
	opt.DeadAfter = time.Second
	opt.Speculate = true
	opt.SpecMinSamples = 1
	opt.SpecFactor = 3
	opt.WaitWorkers = 3 // no late joiner: the victim must reach its hang grant

	workers := make([]dist.WorkerOptions, 3)
	workers[0].HangAfter = 8 // per-worker grant count: deep enough that kernels have history
	workers[0].HangFor = time.Second

	start := time.Now()
	c, err := runDistributed(t, opt, workers)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky with speculative twin")
	if elapsed >= 8*time.Second {
		t.Errorf("run took %v: the lease deadline, not speculation, rescued the hang", elapsed)
	}
	s := c.Stats()
	if s.SpecLaunched == 0 {
		t.Fatalf("no twin lease was launched: %+v", s)
	}
	if s.SpecWins == 0 {
		t.Errorf("no twin won its race (launched %d): %+v", s.SpecLaunched, s)
	}
	if s.CommitsDuplicate == 0 {
		t.Errorf("the hung worker's late commit was not absorbed as a duplicate")
	}

	l := c.ClusterLog()
	if countPhase(l, trace.PhaseSpecTwin) == 0 {
		t.Error("no spec_twin instant in the merged trace")
	}
	// Exactly-once accounting survives the race: every task completed once,
	// and exactly one attempt per task recorded OK (the loser's duplicate
	// ack records Retried, not a second completion).
	ok := okSpans(l)
	if int64(len(ok)) != s.TasksCompleted {
		t.Errorf("merged OK spans %d != tasks completed %d", len(ok), s.TasksCompleted)
	}
	seen := map[int]bool{}
	for _, e := range ok {
		if seen[e.ID] {
			t.Errorf("task %d has more than one successful span", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestDistWireCorruptionDetectedExactly: with bit-flip injection on every
// worker (and no other fault), each injected corruption must be caught by
// exactly one CRC check — commit-side at the coordinator or fetch-side at
// the worker — and the factor must come out bitwise clean.
func TestDistWireCorruptionDetectedExactly(t *testing.T) {
	const seed, n, nb = 32, 96, 16
	want := choleskyLocal(t, seed, n, nb)
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.Lease = 2 * time.Second // corruption retries must not trip reaping
	opt.DeadAfter = 2 * time.Second
	opt.WaitWorkers = 3

	workers := make([]dist.WorkerOptions, 3)
	for i := range workers {
		workers[i].Chaos = dist.NetChaos{Corrupt: 0.2, Seed: int64(100 + i)}
	}
	c, err := runDistributed(t, opt, workers)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky under payload corruption")
	s := c.Stats()
	if s.CorruptInjected == 0 {
		t.Fatal("chaos injected no corruption: the test exercised nothing")
	}
	if detected := s.CorruptCommits + s.CorruptGets; detected != s.CorruptInjected {
		t.Errorf("injected %d corruptions but detected %d (commit %d + get %d): undetected corruption",
			s.CorruptInjected, detected, s.CorruptCommits, s.CorruptGets)
	}
	l := c.ClusterLog()
	if countPhase(l, trace.PhaseCorrupt) == 0 {
		t.Error("no payload_corrupt instant in the merged trace")
	}
	// Clean exits all around: span accounting stays exact under resends.
	if ok := okSpans(l); int64(len(ok)) != s.TasksCompleted {
		t.Errorf("merged OK spans %d != tasks completed %d", len(ok), s.TasksCompleted)
	}
}

// TestDistCorruptLinkWorkerExits: a worker whose link flips a bit in every
// payload can never fetch a clean tile. It must give up with
// ErrPayloadCorrupt in bounded time rather than re-fetch forever, and the
// job must finish bitwise on the healthy worker once the abandoned lease is
// reaped.
func TestDistCorruptLinkWorkerExits(t *testing.T) {
	const seed, n, nb = 36, 128, 16
	want := choleskyLocal(t, seed, n, nb)
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.DeadAfter = 200 * time.Millisecond
	opt.WaitWorkers = 2 // the lying worker is in the fleet before any lease

	c, err := dist.NewCoordinator("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if werr := dist.RunWorker(c.Addr(), dist.WorkerOptions{}); werr != nil {
			t.Errorf("healthy worker: %v", werr)
		}
	}()
	lying := make(chan error, 1)
	start := time.Now()
	var lyingFor time.Duration
	go func() {
		defer wg.Done()
		werr := dist.RunWorker(c.Addr(), dist.WorkerOptions{Chaos: dist.NetChaos{Corrupt: 1, Seed: 37}})
		lyingFor = time.Since(start)
		lying <- werr
	}()
	runErr := c.Run()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if werr := <-lying; !errors.Is(werr, dist.ErrPayloadCorrupt) {
		t.Fatalf("worker on a corrupting link returned %v, want ErrPayloadCorrupt", werr)
	}
	if lyingFor > 5*time.Second {
		t.Errorf("worker on a corrupting link took %v to give up", lyingFor)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky with a worker on a corrupting link")
}

// TestDistAtRestRotScrubRepair: a committed tile rots in the store (one
// flipped bit, CRC left stale); the background scrub or the verified read
// path must detect it and rebuild the tile from row parity, leaving the
// factor bitwise identical.
func TestDistAtRestRotScrubRepair(t *testing.T) {
	const seed, n, nb = 33, 160, 16
	want := choleskyLocal(t, seed, n, nb)
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.ScrubEvery = 2 * time.Millisecond
	opt.WaitWorkers = 2

	c, err := dist.NewCoordinator("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		// Injected RPC latency stretches the job across several run-loop
		// ticks so the background scrub actually gets passes in.
		wo := dist.WorkerOptions{Chaos: dist.NetChaos{
			Delay: 0.35, MaxDelay: 4 * time.Millisecond, Seed: int64(301 + i),
		}}
		go func() {
			defer wg.Done()
			if werr := dist.RunWorker(c.Addr(), wo); werr != nil {
				t.Logf("worker exit: %v", werr)
			}
		}()
	}
	// Tile (0,0) is finalized by the very first completed task (the root
	// potrf is the only initially-ready task and its only writer). Rot it
	// as soon as that lands — hundreds of tasks before the job can finish.
	rotted := make(chan error, 1)
	go func() {
		for c.Stats().TasksCompleted == 0 {
			time.Sleep(500 * time.Microsecond)
		}
		rotted <- c.CorruptStoredTile(0, 0, 3, 40)
	}()
	runErr := c.Run()
	wg.Wait()
	if err := <-rotted; err != nil {
		t.Fatalf("rot injection failed: %v", err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky after at-rest rot repair")
	s := c.Stats()
	if s.AtRestDetected == 0 {
		t.Fatalf("injected rot was never detected: %+v", s)
	}
	if s.AtRestRepaired != s.AtRestDetected {
		t.Errorf("detected %d rotted tiles but repaired %d", s.AtRestDetected, s.AtRestRepaired)
	}
	if s.ScrubScanned == 0 {
		t.Error("scrub never scanned a tile despite ScrubEvery being set")
	}
}

// TestDistPartitionRejoinBitwise: a partition window silences one worker's
// traffic mid-run. The coordinator must evict it on heartbeat silence and
// carry on; when the window closes the worker must rejoin under a fresh
// identity and the job must finish bitwise identical — the flapping-node
// case.
func TestDistPartitionRejoinBitwise(t *testing.T) {
	const seed, n, nb = 34, 160, 16
	want := choleskyLocal(t, seed, n, nb)
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.Lease = 300 * time.Millisecond
	opt.DeadAfter = 150 * time.Millisecond
	opt.WaitWorkers = 2

	workers := make([]dist.WorkerOptions, 2)
	// The healthy worker gets injected latency so the job outlives the
	// partition window and the rejoined worker rejoins a live job.
	workers[0].Chaos = dist.NetChaos{Delay: 0.55, MaxDelay: 7 * time.Millisecond, Seed: 201}
	workers[1].Chaos = dist.NetChaos{
		Delay: 0.55, MaxDelay: 7 * time.Millisecond,
		PartitionAfter: 150 * time.Millisecond,
		PartitionFor:   500 * time.Millisecond,
		Seed:           202,
	}

	c, err := runDistributed(t, opt, workers)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky across a partition")
	s := c.Stats()
	if s.WorkersLost == 0 {
		t.Fatalf("the partitioned worker was never evicted: %+v", s)
	}
	if s.WorkersRejoined == 0 {
		t.Fatalf("the partitioned worker never rejoined: %+v", s)
	}
	l := c.ClusterLog()
	if countPhase(l, trace.PhasePartition) == 0 {
		t.Error("no partition instant shipped into the merged trace")
	}
	if countPhase(l, trace.PhaseRejoin) == 0 {
		t.Error("no worker_rejoin instant in the merged trace")
	}
}

// allChaos is the kitchen-sink wire-fault config for the soak.
func allChaos(seed int64) dist.NetChaos {
	return dist.NetChaos{
		DropSend:  0.04,
		DropReply: 0.04,
		Dup:       0.06,
		Delay:     0.12,
		MaxDelay:  2 * time.Millisecond,
		Corrupt:   0.06,
		Seed:      seed,
	}
}

// TestDistAllChaosSoakBitwise is the headline robustness property: kill +
// hang + drop + duplicate + delay + corrupt + partition + stragglers all
// at once, with speculation, scrubbing, and write-back residency enabled —
// and both factorizations still land bitwise identical to a fault-free
// single-process run, completing every task exactly once.
func TestDistAllChaosSoakBitwise(t *testing.T) {
	for _, op := range []string{dist.OpCholesky, dist.OpLUNoPiv} {
		t.Run(op, func(t *testing.T) {
			const seed, n, nb = 35, 128, 16
			// Reference: the runtime's own zero-worker degradation executes the
			// identical plan coordinator-locally — fault-free by construction.
			ref := spdTiled(seed, n, nb)
			refOpt := fastOpts(op, ref)
			refOpt.LocalDelay = time.Millisecond
			c0, err := runDistributed(t, refOpt, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := c0.Result().ToColMajor()

			a := spdTiled(seed, n, nb)
			opt := fastOpts(op, a)
			opt.Lease = 500 * time.Millisecond
			opt.DeadAfter = 250 * time.Millisecond
			opt.WriteBack = true
			opt.Speculate = true
			opt.SpecMinSamples = 2
			opt.SpecFactor = 3
			opt.ScrubEvery = 10 * time.Millisecond
			opt.WaitWorkers = 4

			workers := make([]dist.WorkerOptions, 4)
			base := int64(300)
			if op == dist.OpLUNoPiv {
				base = 400
			}
			for i := range workers {
				workers[i].Chaos = allChaos(base + int64(i))
			}
			workers[0].KillAfter = 3
			workers[1].HangAfter = 4
			workers[1].HangFor = 300 * time.Millisecond
			workers[2].Chaos.PartitionAfter = 200 * time.Millisecond
			workers[2].Chaos.PartitionFor = 400 * time.Millisecond
			workers[3].SlowFactor = 8

			c, err := runDistributed(t, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, c.Result().ToColMajor(), want, op+" under all chaos at once")

			s := c.Stats()
			st := c.Status()
			if s.TasksCompleted != int64(st.Tasks) {
				t.Errorf("tasks completed %d != plan tasks %d: a task completed twice or never",
					s.TasksCompleted, st.Tasks)
			}
			if s.CorruptInjected == 0 {
				t.Error("soak injected no payload corruption")
			}
			if s.CorruptCommits+s.CorruptGets == 0 {
				t.Error("soak detected no payload corruption")
			}
			if s.WorkersLost == 0 {
				t.Error("soak lost no workers despite kill + partition")
			}
			// Exactly-once through the trace: no task may ever record two
			// successful attempts (speculation losers and chaos duplicates
			// must all be absorbed as Retried). A killed worker can lose its
			// final unshipped spans, so ≤ rather than == here.
			l := c.ClusterLog()
			ok := okSpans(l)
			if int64(len(ok)) > s.TasksCompleted {
				t.Errorf("merged OK spans %d > tasks completed %d: double-counted completion",
					len(ok), s.TasksCompleted)
			}
			seen := map[int]*trace.Event{}
			for _, e := range ok {
				e := e
				if first := seen[e.ID]; first != nil {
					t.Errorf("task %d has more than one successful span:\n  %+v\n  %+v", e.ID, *first, e)
				}
				seen[e.ID] = &e
			}
		})
	}
}
