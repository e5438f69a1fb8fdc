package dist_test

// Multi-process tests: the test binary re-execs itself as real worker
// processes (TestMain intercepts the child role via environment), so
// worker death here is actual process death — one worker is SIGKILLed by
// the parent at an arbitrary moment, another exits(137) mid-lease via the
// fault hook. The factorization must still match the single-process run
// bit for bit.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"exadla/internal/dist"
	"exadla/internal/trace"
)

const (
	workerAddrEnv = "EXADLA_DIST_WORKER_ADDR"
	workerKillEnv = "EXADLA_DIST_WORKER_KILL_AFTER"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(workerAddrEnv); addr != "" {
		opt := dist.WorkerOptions{ExitOnKill: true}
		if s := os.Getenv(workerKillEnv); s != "" {
			opt.KillAfter, _ = strconv.Atoi(s)
		}
		if err := dist.RunWorker(addr, opt); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnWorker re-execs this test binary as a worker process.
func spawnWorker(t *testing.T, addr string, killAfter int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		workerAddrEnv+"="+addr,
		workerKillEnv+"="+strconv.Itoa(killAfter),
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func TestDistMultiProcessSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const seed, n, nb = 31, 160, 16
	want := choleskyLocal(t, seed, n, nb)

	a := spdTiled(seed, n, nb)
	c, err := dist.NewCoordinator("127.0.0.1:0", killOpts(dist.OpCholesky, a))
	if err != nil {
		t.Fatal(err)
	}

	// Three real worker processes: one marked for exit(137) on its 3rd
	// task, one that the parent will SIGKILL at an arbitrary wall-clock
	// moment, one clean.
	victim := spawnWorker(t, c.Addr(), 3)
	sniped := spawnWorker(t, c.Addr(), 0)
	clean := spawnWorker(t, c.Addr(), 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(150 * time.Millisecond)
		_ = sniped.Process.Signal(syscall.SIGKILL)
	}()

	runErr := c.Run()
	wg.Wait()
	victimErr := victim.Wait()
	snipedErr := sniped.Wait()
	cleanErr := clean.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if cleanErr != nil {
		t.Errorf("clean worker process failed: %v", cleanErr)
	}
	if ee, ok := victimErr.(*exec.ExitError); !ok || ee.ExitCode() != 137 {
		t.Errorf("fault-hook victim exited %v, want exit code 137", victimErr)
	}
	// The sniped worker was either killed mid-run (signal) or — on a very
	// slow or very fast box — finished before/after the signal landed.
	t.Logf("sniped worker: %v", snipedErr)

	got := c.Result().ToColMajor()
	if len(got) != len(want) {
		t.Fatalf("result length %d != %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("multi-process cholesky diverges at element %d", i)
		}
	}
	s := c.Stats()
	if s.WorkersJoined < 3 {
		t.Errorf("workers joined = %d, want >= 3", s.WorkersJoined)
	}
	if s.WorkersLost < 1 {
		t.Errorf("no worker death was detected: %+v", s)
	}
	if s.TasksReexecuted == 0 {
		t.Error("no task was re-executed after process death")
	}
	t.Logf("multi-process stats: %+v", s)

	// The merged cluster trace survives real process death: spans shipped
	// before the SIGKILL are in (a killed process loses only its unshipped
	// tail), the eviction is an instant on the timeline, and the export is
	// loadable Chrome trace JSON with real worker process lanes.
	l := c.ClusterLog()
	checkLaneMonotone(t, l)
	cs := l.AnalyzeCluster()
	if cs.Faults[trace.PhaseEvicted] == 0 {
		t.Errorf("merged trace has no eviction instant: %v", cs.Faults)
	}
	var buf bytes.Buffer
	if err := l.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var chromeEvents []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &chromeEvents); err != nil {
		t.Fatalf("cluster export is not loadable JSON: %v", err)
	}
	workerLanes := 0
	for _, e := range chromeEvents {
		if e["name"] == "process_name" &&
			strings.HasPrefix(e["args"].(map[string]any)["name"].(string), "worker") {
			workerLanes++
		}
	}
	if workerLanes < 2 {
		t.Errorf("worker process lanes = %d, want >= 2", workerLanes)
	}
}

// TestDistMultiProcessClusterTrace pins the shipping protocol across real
// process boundaries on a clean run: every completed task has exactly one
// successful whole-attempt span in the merged trace (workers flush their
// tails on Bye), and each real process's spans are monotone after its
// RTT-midpoint clock offset re-bases them — raw UnixNano timestamps from
// another process would land decades outside the run window.
func TestDistMultiProcessClusterTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const seed, n, nb = 33, 160, 16
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	// Start barrier: it also holds back the local fallback, which would
	// otherwise run the whole job if the re-exec'd workers are slow to join.
	opt.WaitWorkers = 2
	c, err := dist.NewCoordinator("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	w1 := spawnWorker(t, c.Addr(), 0)
	w2 := spawnWorker(t, c.Addr(), 0)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Wait(); err != nil {
		t.Errorf("worker 1: %v", err)
	}
	if err := w2.Wait(); err != nil {
		t.Errorf("worker 2: %v", err)
	}
	wallNS := time.Since(start).Nanoseconds()

	l := c.ClusterLog()
	s := c.Stats()
	if ok := okSpans(l); int64(len(ok)) != s.TasksCompleted {
		t.Errorf("merged OK spans %d != tasks completed %d", len(ok), s.TasksCompleted)
	}
	checkLaneMonotone(t, l)
	checkAligned(t, l, wallNS)

	st := c.Status()
	for _, w := range st.Workers {
		if w.SpansShipped == 0 {
			t.Errorf("worker %d shipped no spans", w.ID)
		}
		if w.ClockRTTNS <= 0 {
			t.Errorf("worker %d has no clock-offset sample (rtt %d)", w.ID, w.ClockRTTNS)
		}
	}
}

func TestDistMultiProcessLUNoPiv(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const seed, n, nb = 32, 96, 16

	// Reference: the runtime's own zero-worker local execution.
	ref := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpLUNoPiv, ref)
	opt.LocalDelay = time.Millisecond
	c0, err := runDistributed(t, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := c0.Result().ToColMajor()

	a := spdTiled(seed, n, nb)
	kopt := killOpts(dist.OpLUNoPiv, a)
	// Start barrier: without it, a slow-to-exec victim process can join
	// after the survivors drained the whole (small) DAG and exit clean
	// without ever reaching its 2nd lease — no death, nothing to detect.
	kopt.WaitWorkers = 3
	c, err := dist.NewCoordinator("127.0.0.1:0", kopt)
	if err != nil {
		t.Fatal(err)
	}
	w1 := spawnWorker(t, c.Addr(), 2) // dies on its 2nd task
	w2 := spawnWorker(t, c.Addr(), 0)
	w3 := spawnWorker(t, c.Addr(), 0)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	_, _, _ = w1.Wait(), w2.Wait(), w3.Wait()

	got := c.Result().ToColMajor()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("multi-process lu-nopiv diverges at element %d", i)
		}
	}
	if s := c.Stats(); s.WorkersLost != 1 {
		t.Errorf("workers lost = %d, want 1", s.WorkersLost)
	}
}
