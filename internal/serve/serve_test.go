package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"exadla/internal/matgen"
)

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// residual returns max_i |A·x − b|_i for column-major n×n A and n×nrhs x, b.
func residual(n, nrhs int, a, x, b []float64) float64 {
	worst := 0.0
	for c := 0; c < nrhs; c++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i+k*n] * x[k+c*n]
			}
			if d := math.Abs(s - b[i+c*n]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func mustSubmit(t *testing.T, s *Server, tenant string, spec JobSpec) string {
	t.Helper()
	id, err := s.Submit(tenant, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return id
}

func waitDone(t *testing.T, s *Server, id string) Status {
	t.Helper()
	st, ok := s.WaitJob(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if st.State != "done" {
		t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
	}
	return st
}

func TestServeSolveCorrectness(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 2, TileSize: 16, SmallCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	n, nrhs := 48, 3
	for _, op := range []Op{OpSolveSPD, OpSolveLU} {
		a := matgen.DiagDomSPD[float64](rng, n)
		b := matgen.Dense[float64](rng, n, nrhs)
		id := mustSubmit(t, s, "t0", JobSpec{Op: op, N: n, NRHS: nrhs, A: clone(a), B: clone(b)})
		st := waitDone(t, s, id)
		if st.Cache != "miss" {
			t.Errorf("%s: first solve should be a cache miss, got %q", op, st.Cache)
		}
		if st.Fingerprint == "" {
			t.Errorf("%s: no fingerprint reported", op)
		}
		if st.TasksDone < 1 {
			t.Errorf("%s: progress reports %d tasks", op, st.TasksDone)
		}
		x, err := s.Result(id)
		if err != nil {
			t.Fatalf("%s: Result: %v", op, err)
		}
		if r := residual(n, nrhs, a, x, b); r > 1e-8 {
			t.Errorf("%s: residual %g", op, r)
		}
	}
}

// TestLaneRetainsNoTaskGraph: a lane that has run many cold solves holds
// no more of them than the job records the server keeps by design. A lane
// runtime that kept each walk's dependence map grew the heap by ≈ 24 KB per
// n = 256 job; the bound is 8 KB.
func TestLaneRetainsNoTaskGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are meaningless under the race detector")
	}
	s, err := New(Config{Lanes: 1, Workers: 2, CacheEntries: -1, SmallCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n, jobs = 256, 400
	rng := rand.New(rand.NewSource(11))
	a := matgen.DiagDomSPD[float64](rng, n)
	b := matgen.Dense[float64](rng, n, 1)
	solve := func() {
		waitDone(t, s, mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, NRHS: 1, A: clone(a), B: clone(b)}))
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 10; i++ { // warm the runtime's slabs and pools
		solve()
	}
	before := heap()
	for i := 0; i < jobs; i++ {
		solve()
	}
	after := heap()
	perJob := (float64(after) - float64(before)) / jobs
	if perJob > 8<<10 {
		t.Errorf("heap grew %.1f KB per cold n=%d job, want < 8 KB", perJob/1024, n)
	}
}

func TestCacheHitBitwiseEqualsColdSolve(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 2, TileSize: 16, SmallCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	n, nrhs := 64, 2
	a := matgen.DiagDomSPD[float64](rng, n)
	b := matgen.Dense[float64](rng, n, nrhs)

	cold := mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, NRHS: nrhs, A: clone(a), B: clone(b)})
	stCold := waitDone(t, s, cold)
	warm := mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, NRHS: nrhs, A: clone(a), B: clone(b)})
	stWarm := waitDone(t, s, warm)

	if stCold.Cache != "miss" || stWarm.Cache != "hit" {
		t.Fatalf("cache status: cold=%q warm=%q", stCold.Cache, stWarm.Cache)
	}
	if stCold.Fingerprint != stWarm.Fingerprint {
		t.Errorf("same matrix fingerprinted differently: %s vs %s", stCold.Fingerprint, stWarm.Fingerprint)
	}
	xc, _ := s.Result(cold)
	xw, _ := s.Result(warm)
	for i := range xc {
		if xc[i] != xw[i] {
			t.Fatalf("warm solve differs from cold at %d: %v vs %v", i, xw[i], xc[i])
		}
	}
	snap := s.Metrics()
	if snap.Counters["serve.cache.hits"] != 1 || snap.Counters["serve.cache.misses"] != 1 {
		t.Errorf("cache counters: hits=%d misses=%d, want 1/1",
			snap.Counters["serve.cache.hits"], snap.Counters["serve.cache.misses"])
	}
}

func TestFactorizeThenSolveByFingerprint(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 2, TileSize: 16, SmallCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	n := 40
	a := matgen.DiagDomSPD[float64](rng, n)
	b := matgen.Dense[float64](rng, n, 1)

	fid := mustSubmit(t, s, "t0", JobSpec{Op: OpFactorSPD, N: n, A: clone(a)})
	fp := waitDone(t, s, fid).Fingerprint
	if fp == "" {
		t.Fatal("factorize produced no fingerprint")
	}

	// Solve referencing the resident factor: no matrix upload at all.
	sid := mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, NRHS: 1, Fingerprint: fp, B: clone(b)})
	st := waitDone(t, s, sid)
	if st.Cache != "hit" {
		t.Errorf("fingerprint solve was %q, want hit", st.Cache)
	}
	x, err := s.Result(sid)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(n, 1, a, x, b); r > 1e-8 {
		t.Errorf("residual %g", r)
	}

	// An unknown fingerprint must fail cleanly, not hang or panic.
	bad := mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, NRHS: 1,
		Fingerprint: strings.Repeat("f", 32), B: clone(b)})
	if st, _ := s.WaitJob(bad); st.State != "failed" || !strings.Contains(st.Error, "not resident") {
		t.Errorf("unknown fingerprint: state=%s err=%q", st.State, st.Error)
	}
}

func TestFingerprintCollisionSanity(t *testing.T) {
	fpr := newFingerprinter()
	rng := rand.New(rand.NewSource(4))
	seen := make(map[string]bool)
	const trials = 2000
	for i := 0; i < trials; i++ {
		m := matgen.Dense[float64](rng, 8, 8)
		fp := fpr.of(m)
		if len(fp) != 32 {
			t.Fatalf("fingerprint %q is not 128 bits of hex", fp)
		}
		if seen[fp] {
			t.Fatalf("collision after %d random matrices", i)
		}
		seen[fp] = true
		if fpr.of(m) != fp {
			t.Fatal("fingerprint is not deterministic")
		}
	}
	// One-bit perturbation must change the fingerprint.
	m := matgen.Dense[float64](rng, 16, 16)
	fp := fpr.of(m)
	m[100] = math.Nextafter(m[100], 2)
	if fpr.of(m) == fp {
		t.Error("single-ulp perturbation kept the same fingerprint")
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 2, TileSize: 16, SmallCutoff: -1, CacheEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	n := 24
	var fps []string
	for i := 0; i < 3; i++ {
		a := matgen.DiagDomSPD[float64](rng, n)
		id := mustSubmit(t, s, "t0", JobSpec{Op: OpFactorSPD, N: n, A: a})
		fps = append(fps, waitDone(t, s, id).Fingerprint)
	}
	if got := s.CacheLen(); got != 2 {
		t.Errorf("cache holds %d entries, want 2", got)
	}
	if s.Metrics().Counters["serve.cache.evictions"] != 1 {
		t.Errorf("evictions=%d, want 1", s.Metrics().Counters["serve.cache.evictions"])
	}
	// The first (least recently used) factor is the one gone.
	b := matgen.Dense[float64](rng, n, 1)
	id := mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, NRHS: 1, Fingerprint: fps[0], B: b})
	if st, _ := s.WaitJob(id); st.State != "failed" {
		t.Errorf("solve against the evicted factor: state=%s", st.State)
	}
}

func TestShedUnderOverloadAndAdmitAfterDrain(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 1, TileSize: 16, SmallCutoff: -1,
		MaxQueue: 2, RetryAfter: 7 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	n := 16
	spec := func(d time.Duration) JobSpec {
		return JobSpec{Op: OpSolveSPD, N: n, NRHS: 1,
			A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1), testDelay: d}
	}
	j1 := mustSubmit(t, s, "t0", spec(300*time.Millisecond))
	j2 := mustSubmit(t, s, "t0", spec(0))
	// Budget exhausted: one running/queued + one queued == MaxQueue.
	if _, err := s.Submit("t0", spec(0)); err == nil {
		t.Fatal("third submission admitted past a MaxQueue of 2")
	} else {
		shed, ok := err.(*ShedError)
		if !ok {
			t.Fatalf("overload returned %T (%v), want *ShedError", err, err)
		}
		if shed.RetryAfter != 7*time.Second {
			t.Errorf("RetryAfter=%v, want the configured 7s", shed.RetryAfter)
		}
	}
	if s.Metrics().Counters["serve.shed_total"] != 1 {
		t.Errorf("shed_total=%d, want 1", s.Metrics().Counters["serve.shed_total"])
	}
	waitDone(t, s, j1)
	waitDone(t, s, j2)
	// Drained: admission reopens.
	j4 := mustSubmit(t, s, "t0", spec(0))
	waitDone(t, s, j4)
}

func TestPerTenantBudgetIsolation(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 1, TileSize: 16, SmallCutoff: -1,
		MaxQueue: 10, MaxQueuePerTenant: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	n := 16
	spec := func(d time.Duration) JobSpec {
		return JobSpec{Op: OpSolveSPD, N: n, NRHS: 1,
			A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1), testDelay: d}
	}
	var greedy []string
	greedy = append(greedy, mustSubmit(t, s, "hog", spec(200*time.Millisecond)))
	greedy = append(greedy, mustSubmit(t, s, "hog", spec(0)))
	if _, err := s.Submit("hog", spec(0)); err == nil {
		t.Fatal("tenant exceeded its per-tenant budget")
	}
	// The other tenant still gets in: the hog sheds alone.
	polite := mustSubmit(t, s, "polite", spec(0))
	for _, id := range greedy {
		waitDone(t, s, id)
	}
	waitDone(t, s, polite)
}

func TestFairShareDequeue(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 1, TileSize: 16, SmallCutoff: -1, MaxQueue: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	n := 16
	spec := func(d time.Duration) JobSpec {
		return JobSpec{Op: OpSolveSPD, N: n, NRHS: 1,
			A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1), testDelay: d}
	}
	// Plug the single lane, then queue 4 slow jobs for the hog and one for
	// the latecomer. Fair-share dequeue serves the latecomer second, not
	// fifth.
	plug := mustSubmit(t, s, "hog", spec(200*time.Millisecond))
	var hogs []string
	for i := 0; i < 4; i++ {
		hogs = append(hogs, mustSubmit(t, s, "hog", spec(50*time.Millisecond)))
	}
	late := mustSubmit(t, s, "late", spec(0))
	waitDone(t, s, late)
	st, _ := s.Status(hogs[3])
	if st.State == "done" {
		t.Error("hog's whole backlog drained before the other tenant's single job")
	}
	waitDone(t, s, plug)
	for _, id := range hogs {
		waitDone(t, s, id)
	}
}

func TestBatchedFastPathFusesJobs(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 2, TileSize: 16,
		SmallCutoff: 16, BatchMax: 64, MaxQueue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	n, count := 8, 200
	as := make([][]float64, count)
	bs := make([][]float64, count)
	ids := make([]string, count)
	for i := 0; i < count; i++ {
		as[i] = matgen.DiagDomSPD[float64](rng, n)
		bs[i] = matgen.Dense[float64](rng, n, 1)
		op := OpSolveSPD
		if i%3 == 0 {
			op = OpSolveLU
		}
		ids[i] = mustSubmit(t, s, fmt.Sprintf("t%d", i%4),
			JobSpec{Op: op, N: n, NRHS: 1, A: clone(as[i]), B: clone(bs[i])})
	}
	for i, id := range ids {
		st := waitDone(t, s, id)
		if !st.Batched {
			t.Fatalf("job %d took the lane path; SmallCutoff routing broken", i)
		}
		x, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if r := residual(n, 1, as[i], x, bs[i]); r > 1e-9 {
			t.Errorf("job %d residual %g", i, r)
		}
	}
	snap := s.Metrics()
	if got := snap.Counters["serve.batch.jobs"]; got != int64(count) {
		t.Errorf("batch.jobs=%d, want %d", got, count)
	}
	if fl := snap.Counters["serve.batch.flushes"]; fl >= int64(count)/4 {
		t.Errorf("%d flushes for %d jobs: the fast path is not batching", fl, count)
	}
}

func TestBatchedPathIsolatesBadProblem(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 2, TileSize: 16,
		SmallCutoff: 16, BatchMax: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(10))
	n := 8
	var ids []string
	for i := 0; i < 10; i++ {
		a := matgen.DiagDomSPD[float64](rng, n)
		if i == 4 {
			a[3+3*n] = -1e9 // not positive definite
		}
		ids = append(ids, mustSubmit(t, s, "t0",
			JobSpec{Op: OpSolveSPD, N: n, NRHS: 1, A: a, B: matgen.Dense[float64](rng, n, 1)}))
	}
	for i, id := range ids {
		st, _ := s.WaitJob(id)
		if i == 4 {
			if st.State != "failed" {
				t.Errorf("the indefinite problem reported %s", st.State)
			}
			continue
		}
		if st.State != "done" {
			t.Errorf("job %d: %s (%s) — a bad neighbor took it down", i, st.State, st.Error)
		}
	}
}

// TestLoneSmallJobsAreNotHeld: a tiny solve with nothing queued beside it
// flushes at once; the batcher does not wait for a batch to fill.
func TestLoneSmallJobsAreNotHeld(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 1, SmallCutoff: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(37))
	const n, lone = 8, 9
	var waits []float64
	for i := 0; i < lone; i++ {
		st := waitDone(t, s, mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n,
			A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1)}))
		if !st.Batched {
			t.Fatalf("job %d took the lane path", i)
		}
		waits = append(waits, st.QueueWaitMs)
	}
	sort.Float64s(waits)
	if med := waits[lone/2]; med >= 1 {
		t.Errorf("median queue wait of a lone tiny job is %.2f ms (all: %v), want < 1 ms", med, waits)
	}
}

// TestNonFiniteOperandsRejected: a NaN or ±Inf anywhere in A or B is
// refused at submission, in process with a *NonFiniteError naming the
// entry and over raw HTTP with 400, on the lane and the batched path, for
// SPD and LU solves. Accepted, it would end "done" with an all-NaN X.
func TestNonFiniteOperandsRejected(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(37))
	for _, path := range []struct {
		name   string
		cutoff int
	}{{"lane", -1}, {"batched", 16}} {
		s, err := New(Config{Addr: "127.0.0.1:0", Lanes: 1, Workers: 1, SmallCutoff: path.cutoff})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Op{OpSolveSPD, OpSolveLU} {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, operand := range []string{"A", "B"} {
					a, b := matgen.DiagDomSPD[float64](rng, n), matgen.Dense[float64](rng, n, 1)
					row, col := 5, 0
					if operand == "A" {
						col = 2
						a[row+col*n] = bad
					} else {
						b[row] = bad
					}
					name := fmt.Sprintf("%s/%s/%v/%s", path.name, op, bad, operand)
					_, err := s.Submit("t0", JobSpec{Op: op, N: n, A: clone(a), B: clone(b)})
					var nf *NonFiniteError
					if !errors.As(err, &nf) || nf.Operand != operand || nf.Row != row || nf.Col != col {
						t.Errorf("%s: Submit returned %v, want a NonFiniteError at %s(%d,%d)", name, err, operand, row, col)
					}
					resp, err := http.Post(fmt.Sprintf("http://%s/jobs?op=%s&n=%d", s.Addr(), op, n),
						"application/octet-stream", bytes.NewReader(leBody(a, b)))
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("%s: raw HTTP submit got %d, want 400", name, resp.StatusCode)
					}
				}
			}
		}
		// Rejections leave the server working.
		a := matgen.DiagDomSPD[float64](rng, n)
		waitDone(t, s, mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, A: a, B: matgen.Dense[float64](rng, n, 1)}))
		if got := s.Metrics().Counters["serve.admitted"]; got != 1 {
			t.Errorf("%s: %d jobs admitted, want only the clean one", path.name, got)
		}
		s.Close()
	}
}

func TestConcurrentSubmitPollFetch(t *testing.T) {
	s, err := New(Config{Lanes: 2, Workers: 2, TileSize: 16,
		SmallCutoff: 16, MaxQueue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const tenants, perTenant = 4, 25
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		tn := tn
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + tn)))
			tenant := fmt.Sprintf("tenant-%d", tn)
			for i := 0; i < perTenant; i++ {
				var spec JobSpec
				switch i % 3 {
				case 0: // tiny solve → batched path
					spec = JobSpec{Op: OpSolveSPD, N: 8, NRHS: 1,
						A: matgen.DiagDomSPD[float64](rng, 8), B: matgen.Dense[float64](rng, 8, 1)}
				case 1: // bigger solve → lane path, shared operator → cache traffic
					a := matgen.DiagDomSPD[float64](rand.New(rand.NewSource(int64(tn))), 32)
					spec = JobSpec{Op: OpSolveSPD, N: 32, NRHS: 2,
						A: a, B: matgen.Dense[float64](rng, 32, 2)}
				default: // LU
					spec = JobSpec{Op: OpSolveLU, N: 24, NRHS: 1,
						A: matgen.Dense[float64](rng, 24, 24), B: matgen.Dense[float64](rng, 24, 1)}
				}
				id, err := s.Submit(tenant, spec)
				if err != nil {
					t.Errorf("%s: %v", tenant, err)
					return
				}
				// Poll while it runs, then fetch.
				for k := 0; k < 3; k++ {
					if _, ok := s.Status(id); !ok {
						t.Errorf("%s: job %s lost", tenant, id)
						return
					}
				}
				st, _ := s.WaitJob(id)
				if st.State != "done" {
					t.Errorf("%s: job %s %s: %s", tenant, id, st.State, st.Error)
					return
				}
				if _, err := s.Result(id); err != nil {
					t.Errorf("%s: %v", tenant, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Metrics()
	if got := snap.Counters["serve.done"]; got != tenants*perTenant {
		t.Errorf("done=%d, want %d", got, tenants*perTenant)
	}
	if snap.Counters["serve.failed"] != 0 {
		t.Errorf("failed=%d", snap.Counters["serve.failed"])
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Lanes: 1, Workers: 2, TileSize: 16, SmallCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(11))
	n := 24
	a := matgen.DiagDomSPD[float64](rng, n)
	b := matgen.Dense[float64](rng, n, 1)

	// JSON submit with wait=1 returns the terminal status directly.
	body, _ := json.Marshal(JobSpec{Op: OpSolveSPD, N: n, NRHS: 1, A: a, B: b})
	req, _ := http.NewRequest("POST", base+"/jobs?wait=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || st.State != "done" || st.Tenant != "alice" {
		t.Fatalf("wait submit: code=%d status=%+v", resp.StatusCode, st)
	}

	// Result as JSON, then as raw bytes; both must agree with the residual.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		X []float64 `json:"x"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if r := residual(n, 1, a, res.X, b); r > 1e-8 {
		t.Errorf("HTTP residual %g", r)
	}
	resp, err = http.Get(base + "/jobs/" + st.ID + "/result?format=bin")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(raw) != 8*n {
		t.Fatalf("binary result is %d bytes, want %d", len(raw), 8*n)
	}
	for i := range res.X {
		if math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])) != res.X[i] {
			t.Fatal("binary result differs from JSON result")
		}
	}

	// Raw octet-stream submit: A then B as little-endian float64s.
	raw = make([]byte, 8*(n*n+n))
	for i, v := range a {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	for i, v := range b {
		binary.LittleEndian.PutUint64(raw[8*(n*n+i):], math.Float64bits(v))
	}
	req, _ = http.NewRequest("POST", fmt.Sprintf("%s/jobs?wait=1&op=solve&n=%d&nrhs=1", base, n), bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st2 Status
	_ = json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if st2.State != "done" {
		t.Fatalf("raw submit: %+v", st2)
	}
	if st2.Cache != "hit" {
		t.Errorf("raw resubmission of the same operator was %q, want hit", st2.Cache)
	}

	// Unknown job is a JSON 404.
	resp, _ = http.Get(base + "/jobs/j99999999")
	if resp.StatusCode != 404 {
		t.Errorf("unknown job: code=%d", resp.StatusCode)
	}
	resp.Body.Close()

	// /metrics carries the serve_* family in Prometheus form.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_cache_hits", "serve_shed_total", "serve_done", "serve_latency_ns"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestHTTPShedAndWatch(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Lanes: 1, Workers: 1, TileSize: 16,
		SmallCutoff: -1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(12))
	n := 16
	// Plug the lane in-process so the HTTP submission is deterministically shed.
	slow := mustSubmit(t, s, "t0", JobSpec{Op: OpSolveSPD, N: n, NRHS: 1,
		A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1),
		testDelay: 400 * time.Millisecond})

	body, _ := json.Marshal(JobSpec{Op: OpSolveSPD, N: n, NRHS: 1,
		A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1)})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: code=%d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After=%q, want \"2\"", ra)
	}

	// Watching the plugged job streams at least a running line and a done line.
	wresp, err := http.Get(base + "/jobs/" + slow + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var states []string
	sc := bufio.NewScanner(wresp.Body)
	for sc.Scan() {
		var st Status
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		states = append(states, st.State)
	}
	if len(states) < 2 || states[len(states)-1] != "done" {
		t.Errorf("watch stream states: %v", states)
	}
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	s, err := New(Config{Lanes: 1, Workers: 1, TileSize: 16, SmallCutoff: -1, MaxQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	n := 16
	spec := func(d time.Duration) JobSpec {
		return JobSpec{Op: OpSolveSPD, N: n, NRHS: 1,
			A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1), testDelay: d}
	}
	running := mustSubmit(t, s, "t0", spec(200*time.Millisecond))
	queued := mustSubmit(t, s, "t0", spec(0))
	for st, _ := s.Status(running); st.State != "running"; st, _ = s.Status(running) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The in-flight job finished; the queued one failed cleanly.
	if st, _ := s.Status(running); st.State != "done" {
		t.Errorf("in-flight job at close: %s", st.State)
	}
	if st, _ := s.Status(queued); st.State != "failed" || !strings.Contains(st.Error, "shut down") {
		t.Errorf("queued job at close: %s (%s)", st.State, st.Error)
	}
	if _, err := s.Submit("t0", spec(0)); err == nil {
		t.Error("submit after Close was admitted")
	}
}
