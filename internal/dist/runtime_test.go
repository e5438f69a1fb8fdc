package dist_test

// In-process tests of the distributed runtime: coordinator and workers
// share the test binary (workers in goroutines, "death" = vanishing
// without a goodbye and with heartbeats stopped), which makes every fault
// schedule seeded and repeatable under -race. The true multi-process
// SIGKILL variants live in proc_test.go.

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// fastOpts returns coordinator options tuned for test-speed fault
// detection: short leases and heartbeat deadlines, millisecond polls.
func fastOpts(op string, a *tile.Matrix[float64]) dist.Options {
	return dist.Options{
		Op: op, A: a,
		Lease:      300 * time.Millisecond,
		DeadAfter:  400 * time.Millisecond,
		LocalDelay: 30 * time.Millisecond,
		Poll:       time.Millisecond,
	}
}

// killOpts returns options where heartbeat-silence eviction (DeadAfter)
// fires well before lease expiry: a worker that dies holding a lease is
// declared dead — not merely reaped — before the job can finish, because
// its leased task blocks the DAG until one of the two deadlines trips.
func killOpts(op string, a *tile.Matrix[float64]) dist.Options {
	opt := fastOpts(op, a)
	opt.Lease = 600 * time.Millisecond
	opt.DeadAfter = 200 * time.Millisecond
	return opt
}

// runDistributed runs one job with the given workers, waits for everything
// to finish, and returns the coordinator error.
func runDistributed(t *testing.T, opt dist.Options, workers []dist.WorkerOptions) (*dist.Coordinator, error) {
	t.Helper()
	c, err := dist.NewCoordinator("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(w dist.WorkerOptions) {
			defer wg.Done()
			err := dist.RunWorker(c.Addr(), w)
			if err != nil && !errors.Is(err, dist.ErrKilled) {
				t.Logf("worker exit: %v", err)
			}
		}(workers[i])
	}
	runErr := c.Run()
	wg.Wait()
	return c, runErr
}

// spdTiled builds a deterministic SPD test matrix in tile layout.
func spdTiled(seed int64, n, nb int) *tile.Matrix[float64] {
	rng := rand.New(rand.NewSource(seed))
	return tile.FromColMajor(n, n, matgen.DiagDomSPD[float64](rng, n), n, nb)
}

// choleskyLocal is the single-process reference: same tile kernels, same
// DAG, executed by the in-process scheduler.
func choleskyLocal(t *testing.T, seed int64, n, nb int) []float64 {
	t.Helper()
	a := spdTiled(seed, n, nb)
	r := sched.New(4)
	if err := core.Cholesky(r, a); err != nil {
		t.Fatal(err)
	}
	r.Shutdown()
	return a.ToColMajor()
}

func bitwiseEqual(t *testing.T, got, want []float64, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", context, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: first bit difference at element %d: %x != %x",
				context, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestDistCholeskyCleanMatchesLocal(t *testing.T) {
	const seed, n, nb = 11, 96, 16
	want := choleskyLocal(t, seed, n, nb)
	a := spdTiled(seed, n, nb)
	c, err := runDistributed(t, fastOpts(dist.OpCholesky, a),
		make([]dist.WorkerOptions, 3))
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "clean 3-worker cholesky")
	s := c.Stats()
	if s.WorkersJoined != 3 || s.WorkersLost != 0 {
		t.Errorf("workers joined=%d lost=%d, want 3/0", s.WorkersJoined, s.WorkersLost)
	}
	if s.TasksCompleted == 0 || s.BytesCommitted == 0 {
		t.Errorf("no distributed work recorded: %+v", s)
	}
}

// TestDistKilledWorkersBitwise is the headline acceptance property: k
// seeded worker deaths mid-factorization change nothing about the answer.
func TestDistKilledWorkersBitwise(t *testing.T) {
	const seed, n, nb = 12, 128, 16 // 120 tasks: every victim reaches its kill grant
	want := choleskyLocal(t, seed, n, nb)
	for _, kills := range []int{0, 1, 2} {
		workers := make([]dist.WorkerOptions, 3)
		// Victims die on their 2nd (and 4th) granted task: lease held, work
		// lost, heartbeats silenced.
		for v := 0; v < kills; v++ {
			workers[v].KillAfter = 2 * (v + 1)
		}
		a := spdTiled(seed, n, nb)
		opt := killOpts(dist.OpCholesky, a)
		opt.WaitWorkers = 3 // no late joiner: leases spread over the whole fleet
		c, err := runDistributed(t, opt, workers)
		if err != nil {
			t.Fatalf("kills=%d: %v", kills, err)
		}
		bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky after kills")
		s := c.Stats()
		if s.WorkersLost != int64(kills) {
			t.Errorf("kills=%d: workers lost = %d", kills, s.WorkersLost)
		}
		if kills > 0 && s.TasksReexecuted == 0 {
			t.Errorf("kills=%d: no task was re-executed", kills)
		}
	}
}

// TestDistLUNoPivKilledWorkersBitwise extends the guarantee to the second
// operation; the reference is the in-process runtime running the same
// core program.
func TestDistLUNoPivKilledWorkersBitwise(t *testing.T) {
	const seed, n, nb = 13, 96, 16 // 91 tasks
	ref := spdTiled(seed, n, nb)
	r := sched.New(4)
	_, err := core.Factor(r, core.OpLUNoPiv, ref, nil, false)
	r.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ToColMajor()

	// The local LU must actually be an LU: A ≈ L·U within roundoff.
	rng := rand.New(rand.NewSource(seed))
	orig := matgen.DiagDomSPD[float64](rng, n)
	lu := want
	var maxErr float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= min(i, j); k++ {
				l := lu[i+k*n]
				if k == i {
					l = 1
				}
				u := lu[k+j*n]
				if k > j {
					u = 0
				}
				s += l * u
			}
			if d := math.Abs(s - orig[i+j*n]); d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > 1e-8 {
		t.Fatalf("L·U deviates from A by %g", maxErr)
	}

	for _, kills := range []int{1, 2} {
		workers := make([]dist.WorkerOptions, 3)
		for v := 0; v < kills; v++ {
			workers[v].KillAfter = v + 2
		}
		a := spdTiled(seed, n, nb)
		opt := killOpts(dist.OpLUNoPiv, a)
		opt.WaitWorkers = 3
		c, err := runDistributed(t, opt, workers)
		if err != nil {
			t.Fatalf("kills=%d: %v", kills, err)
		}
		bitwiseEqual(t, c.Result().ToColMajor(), want, "lu-nopiv after kills")
		if s := c.Stats(); s.WorkersLost != int64(kills) {
			t.Errorf("kills=%d: workers lost = %d", kills, s.WorkersLost)
		}
	}
}

// TestDistHungWorker: a worker that stalls past its lease while still
// heartbeating is not dead — its lease is reaped, and its eventual stale
// commit must be rejected, not applied.
//
// Owner-computes placement on a 2×1 grid makes both faults certain however
// fast the kernels run: every task writing an even (odd) tile row is pinned
// to one worker's slot, so each worker is granted about half the tasks and
// the hang on the 2nd grant always fires, and the reaped task can go back
// to no one but the hung worker itself — it is still pending when the stale
// commit arrives, which is therefore rejected outright.
func TestDistHungWorker(t *testing.T) {
	const seed, n, nb = 14, 96, 16
	want := choleskyLocal(t, seed, n, nb)
	workers := make([]dist.WorkerOptions, 2)
	workers[0].HangAfter = 2
	workers[0].HangFor = 700 * time.Millisecond
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.Lease = 150 * time.Millisecond
	opt.DeadAfter = 5 * time.Second // hung ≠ dead: heartbeats keep flowing
	opt.Strict = true
	opt.GridP, opt.GridQ = 2, 1
	opt.WaitWorkers = 2
	c, err := runDistributed(t, opt, workers)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky with hung worker")
	s := c.Stats()
	if s.LeasesExpired == 0 {
		t.Error("hung worker's lease never expired")
	}
	if s.CommitsRejected == 0 {
		t.Errorf("hung worker's stale commit was not rejected (%d duplicates)", s.CommitsDuplicate)
	}
	if s.WorkersLost != 0 {
		t.Errorf("heartbeating hung worker was evicted (%d lost)", s.WorkersLost)
	}
}

// TestDistNetChaosBitwise: seeded drop/delay/duplicate on every RPC of
// every worker, and the factor still matches the clean local run exactly.
func TestDistNetChaosBitwise(t *testing.T) {
	const seed, n, nb = 15, 96, 16
	want := choleskyLocal(t, seed, n, nb)
	workers := make([]dist.WorkerOptions, 3)
	for i := range workers {
		workers[i].Chaos = dist.NetChaos{
			DropSend:  0.04,
			DropReply: 0.04,
			Dup:       0.04,
			Delay:     0.10,
			MaxDelay:  2 * time.Millisecond,
			Seed:      int64(i + 1),
		}
	}
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.Lease = 500 * time.Millisecond
	opt.DeadAfter = time.Second
	opt.WaitWorkers = 3
	c, err := runDistributed(t, opt, workers)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky under net chaos")
	if s := c.Stats(); s.RPCRetries == 0 {
		t.Error("chaos injected but no RPC retries recorded")
	}
}

// TestDistBytesMatchCountModel is the cost-model contract: under strict
// block-cyclic owner-computes placement with a fully populated grid, the
// bytes workers fetch for task operands must equal the Count replay's
// prediction exactly (tolerance 0 — both count one tile fetch per remote
// operand per execution; the initial scatter is billed separately).
func TestDistBytesMatchCountModel(t *testing.T) {
	const seed, n, nb = 16, 128, 16
	const p, q = 2, 2

	rng := rand.New(rand.NewSource(seed))
	aD := matgen.DiagDomSPD[float64](rng, n)

	ref := tile.FromColMajor(n, n, aD, n, nb)
	rec := sched.NewRecorder()
	if err := core.Cholesky(rec, ref); err != nil {
		t.Fatal(err)
	}
	predicted := dist.Count(rec.Graph(), p*q, dist.BlockCyclic(ref, p, q))

	a := tile.FromColMajor(n, n, aD, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.Strict = true
	opt.GridP, opt.GridQ = p, q
	opt.WaitWorkers = p * q
	opt.Lease = 5 * time.Second // nothing may expire during the clean run
	opt.DeadAfter = 5 * time.Second
	c, err := runDistributed(t, opt, make([]dist.WorkerOptions, p*q))
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), ref.ToColMajor(), "strict-placement cholesky")
	s := c.Stats()
	if s.TasksReexecuted != 0 || s.WorkersLost != 0 {
		t.Fatalf("clean run was not clean: %+v", s)
	}
	wantBytes := int64(8 * predicted.Words)
	if s.BytesFetched != wantBytes {
		t.Errorf("live runtime fetched %d bytes; replay model predicts %d (Δ=%d)",
			s.BytesFetched, wantBytes, s.BytesFetched-wantBytes)
	}
	if s.BytesScattered == 0 {
		t.Error("no scatter traffic recorded for the initial distribution")
	}
}

// TestDistCheckpointAbortResume kills the coordinator (via the abort-after-
// checkpoint hook) and restarts from the saved snapshot; the resumed run
// must finish bitwise-identical to an uninterrupted one.
func TestDistCheckpointAbortResume(t *testing.T) {
	const seed, n, nb = 17, 96, 16 // 6 panel steps
	want := choleskyLocal(t, seed, n, nb)
	dir := t.TempDir()

	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.Ckpt = &core.CkptOptions{Dir: dir, Every: 2, AbortAtStep: 2}
	_, err := runDistributed(t, opt, make([]dist.WorkerOptions, 2))
	if !errors.Is(err, dist.ErrAborted) {
		t.Fatalf("abort hook returned %v, want ErrAborted", err)
	}

	opt2 := fastOpts(dist.OpCholesky, nil)
	opt2.Ckpt = &core.CkptOptions{Dir: dir}
	opt2.Resume = true
	c2, err := runDistributed(t, opt2, make([]dist.WorkerOptions, 2))
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c2.Result().ToColMajor(), want, "resumed cholesky")
	if s := c2.Stats(); s.CheckpointsSaved == 0 {
		t.Error("resumed run saved no further checkpoints")
	}
}

// TestDistWriteBackReconstruction: with write-back residency the store
// deliberately holds only parity for some finalized tiles; killing the
// worker that owns them forces erasure reconstruction (not recomputation),
// and the factor is still exact. Owner-computes on a 3×1 grid makes the
// kill certain: the doomed worker's home tasks can be leased to no one
// else until it is evicted, so it reaches its 4th grant however fast the
// other two are.
func TestDistWriteBackReconstruction(t *testing.T) {
	const seed, n, nb = 18, 96, 16
	want := choleskyLocal(t, seed, n, nb)
	workers := make([]dist.WorkerOptions, 3)
	workers[0].KillAfter = 4
	a := spdTiled(seed, n, nb)
	opt := killOpts(dist.OpCholesky, a)
	opt.WriteBack = true
	opt.Strict = true
	opt.GridP = 3
	opt.WaitWorkers = 3
	c, err := runDistributed(t, opt, workers)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c.Result().ToColMajor(), want, "write-back cholesky after kill")
	s := c.Stats()
	if s.TilesRebuilt == 0 {
		t.Error("write-back run reconstructed no tiles")
	}
	if s.WorkersLost != 1 {
		t.Errorf("workers lost = %d, want 1", s.WorkersLost)
	}
}

// TestDistElasticJoinAndTotalLoss: workers may join mid-run, and losing
// every worker degrades to coordinator-local execution instead of
// deadlocking.
func TestDistElasticJoinAndTotalLoss(t *testing.T) {
	const seed, n, nb = 19, 160, 16 // 10×10 tiles, 220 tasks: room to join mid-run
	want := choleskyLocal(t, seed, n, nb)

	// Phase 1: late joiner. Start with one worker; once the stats prove the
	// run is in flight (a few tasks done, hundreds left), add another.
	a := spdTiled(seed, n, nb)
	c, err := dist.NewCoordinator("127.0.0.1:0", fastOpts(dist.OpCholesky, a))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = dist.RunWorker(c.Addr(), dist.WorkerOptions{}) }()
	go func() {
		defer wg.Done()
		for c.Stats().TasksCompleted < 3 {
			time.Sleep(time.Millisecond)
		}
		_ = dist.RunWorker(c.Addr(), dist.WorkerOptions{})
	}()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	bitwiseEqual(t, c.Result().ToColMajor(), want, "cholesky with late joiner")
	if s := c.Stats(); s.WorkersJoined < 2 {
		t.Errorf("late joiner never joined: %+v", s)
	}

	// Phase 2: every worker dies early; the coordinator must finish alone.
	workers := make([]dist.WorkerOptions, 2)
	workers[0].KillAfter = 1
	workers[1].KillAfter = 2
	a2 := spdTiled(seed, n, nb)
	opt2 := killOpts(dist.OpCholesky, a2)
	opt2.WaitWorkers = 2
	c2, err := runDistributed(t, opt2, workers)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, c2.Result().ToColMajor(), want, "cholesky after total worker loss")
	s := c2.Stats()
	if s.WorkersLost != 2 {
		t.Errorf("workers lost = %d, want 2", s.WorkersLost)
	}
	if s.TasksLocal == 0 {
		t.Error("no local fallback execution after losing all workers")
	}
}

// TestDistKernelFailureIsDeterministic: a non-SPD input fails the job with
// the kernel's error rather than hanging or corrupting state.
func TestDistKernelFailure(t *testing.T) {
	n, nb := 64, 16
	aD := matgen.Identity[float64](n)
	aD[5+5*n] = -3 // not positive definite
	a := tile.FromColMajor(n, n, aD, n, nb)
	_, err := runDistributed(t, fastOpts(dist.OpCholesky, a),
		make([]dist.WorkerOptions, 2))
	if err == nil {
		t.Fatal("non-SPD matrix factored without error")
	}
	if !strings.Contains(err.Error(), "positive definite") {
		t.Errorf("unexpected failure: %v", err)
	}
}
