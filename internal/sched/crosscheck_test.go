// Cross-checks the metrics layer against the Recorder: for the same tiled
// algorithm on the same input, the Runtime's per-kernel task counters must
// equal the kernel counts in the graph the Recorder captures. This makes
// the metrics subsystem itself correctness-tested — a dropped or
// double-counted task shows up as an exact-count mismatch.
//
// The test lives in an external test package so it can drive the real
// factorizations from internal/core without an import cycle.
package sched_test

import (
	"math/rand"
	"testing"

	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// kernelCounts tallies non-barrier nodes of a recorded graph by name.
func kernelCounts(g *sched.Graph) map[string]int64 {
	m := map[string]int64{}
	for _, n := range g.Nodes {
		if !n.Barrier {
			m[n.Name]++
		}
	}
	return m
}

// runtimeKernelCounts extracts per-kernel task counters from a snapshot.
func runtimeKernelCounts(s metrics.Snapshot) map[string]int64 {
	m := map[string]int64{}
	for name, v := range s.Counters {
		const pre, post = "sched.kernel.", ".tasks"
		if len(name) > len(pre)+len(post) && name[:len(pre)] == pre && name[len(name)-len(post):] == post {
			m[name[len(pre):len(name)-len(post)]] = v
		}
	}
	return m
}

func crossCheck(t *testing.T, name string, submit func(s sched.Scheduler, a *tile.Matrix[float64]) error, src []float64, n, nb int) {
	t.Helper()

	// Recorder pass: the ground-truth task graph.
	rec := sched.NewRecorder()
	if err := submit(rec, tile.FromColMajor(n, n, src, n, nb)); err != nil {
		t.Fatalf("%s recorder pass: %v", name, err)
	}
	want := kernelCounts(rec.Graph())

	// Runtime pass with a private registry.
	reg := metrics.New()
	rt := sched.New(4, sched.WithMetrics(reg))
	err := submit(rt, tile.FromColMajor(n, n, src, n, nb))
	rt.Shutdown()
	if err != nil {
		t.Fatalf("%s runtime pass: %v", name, err)
	}
	snap := reg.Snapshot()
	got := runtimeKernelCounts(snap)

	if len(got) == 0 {
		t.Fatalf("%s: runtime recorded no kernel metrics", name)
	}
	for kernel, w := range want {
		if got[kernel] != w {
			t.Errorf("%s kernel %q: runtime counted %d tasks, recorder graph has %d", name, kernel, got[kernel], w)
		}
	}
	for kernel, g := range got {
		if _, ok := want[kernel]; !ok {
			t.Errorf("%s: runtime counted %d tasks for kernel %q absent from the recorded graph", name, g, kernel)
		}
	}

	var total int64
	for _, w := range want {
		total += w
	}
	if c := snap.Counters["sched.tasks_completed"]; c != total {
		t.Errorf("%s: tasks_completed = %d, recorder graph has %d tasks", name, c, total)
	}
	if c := snap.Counters["sched.tasks_submitted"]; c != total {
		t.Errorf("%s: tasks_submitted = %d, recorder graph has %d tasks", name, c, total)
	}

	// Latency histograms must agree with the counters task for task.
	for kernel, w := range want {
		h, ok := snap.Histograms["sched.kernel."+kernel+".latency_ns"]
		if !ok {
			t.Errorf("%s: no latency histogram for kernel %q", name, kernel)
			continue
		}
		if h.Count != w {
			t.Errorf("%s kernel %q: latency histogram has %d observations, want %d", name, kernel, h.Count, w)
		}
	}

	// Occupancy accounting exists for every worker.
	for w := 0; w < 4; w++ {
		id := string(rune('0' + w))
		if _, ok := snap.Counters["sched.worker."+id+".busy_ns"]; !ok {
			t.Errorf("%s: missing busy counter for worker %d", name, w)
		}
	}
	if hwm := snap.Gauges["sched.ready_high_water"]; hwm < 1 {
		t.Errorf("%s: ready_high_water = %g, want >= 1", name, hwm)
	}

	// Every executed attempt had its queue wait observed.
	if h, ok := snap.Histograms["sched.queue_wait_ns"]; !ok || h.Count != total {
		t.Errorf("%s: queue_wait_ns has %d observations, want %d", name, h.Count, total)
	}
}

func TestMetricsCrossCheckCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, nb = 200, 48 // deliberately non-divisible: boundary tiles included
	src := matgen.DiagDomSPD[float64](rng, n)
	crossCheck(t, "cholesky", func(s sched.Scheduler, a *tile.Matrix[float64]) error {
		return core.Cholesky(s, a)
	}, src, n, nb)
}

func TestMetricsCrossCheckQR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, nb = 200, 48
	src := matgen.Dense[float64](rng, n, n)
	crossCheck(t, "qr", func(s sched.Scheduler, a *tile.Matrix[float64]) error {
		core.QR(s, a)
		s.Wait()
		return nil
	}, src, n, nb)
}

// TestMetricsCrossCheckQRWithRetry reruns the QR cross-check under chaos
// injection with a generous retry budget. Task counters count *attempts*,
// so they are checked against the span trace, while distinct span IDs per
// kernel must still match the recorded graph exactly.
func TestMetricsCrossCheckQRWithRetry(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, nb = 200, 32
	src := matgen.Dense[float64](rng, n, n)

	rec := sched.NewRecorder()
	core.QR(rec, tile.FromColMajor(n, n, src, n, nb))
	want := kernelCounts(rec.Graph())

	reg := metrics.New()
	col := &spanCollector{}
	rt := sched.New(4, sched.WithMetrics(reg), sched.WithTracer(col),
		sched.WithChaos(sched.Chaos{Seed: 42, FailProb: 0.1}), sched.WithRetry(50, 0))
	core.QR(rt, tile.FromColMajor(n, n, src, n, nb))
	err := rt.WaitErr()
	rt.Shutdown()
	if err != nil {
		t.Fatalf("qr under chaos+retry: %v", err)
	}
	snap := reg.Snapshot()

	ids := map[string]map[int]bool{}
	attempts := map[string]int64{}
	var retriedSpans, totalAttempts int64
	maxAttempt := 0
	for _, sp := range col.byID() {
		for _, s := range sp {
			if s.Attempt == 0 {
				t.Fatalf("skipped span in a fully retried run: %+v", s)
			}
			if ids[s.Name] == nil {
				ids[s.Name] = map[int]bool{}
			}
			ids[s.Name][s.ID] = true
			attempts[s.Name]++
			totalAttempts++
			if s.Outcome == trace.OutcomeRetried || s.Outcome == trace.OutcomeCorrected {
				retriedSpans++
			}
			if s.Attempt > maxAttempt {
				maxAttempt = s.Attempt
			}
		}
	}

	for kernel, w := range want {
		if got := int64(len(ids[kernel])); got != w {
			t.Errorf("kernel %q: %d distinct span IDs, recorder graph has %d tasks", kernel, got, w)
		}
		if c := snap.Counters["sched.kernel."+kernel+".tasks"]; c != attempts[kernel] {
			t.Errorf("kernel %q: counter %d, span trace has %d attempts", kernel, c, attempts[kernel])
		}
	}
	if c := snap.Counters["sched.tasks_retried"]; c != retriedSpans {
		t.Errorf("tasks_retried = %d, span trace has %d retried attempts", c, retriedSpans)
	}
	if c := snap.Counters["sched.tasks_failed"]; c != 0 {
		t.Errorf("tasks_failed = %d, want 0 with a 50-attempt budget", c)
	}
	if c := snap.Counters["sched.tasks_completed"]; c != totalAttempts {
		t.Errorf("tasks_completed = %d, span trace has %d attempts", c, totalAttempts)
	}
	if maxAttempt < 2 {
		t.Error("chaos at p=0.1 over the QR graph injected no retries")
	}
}

func TestMetricsCrossCheckLU(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, nb = 200, 48
	src := matgen.Dense[float64](rng, n, n)
	for i := 0; i < n; i++ {
		src[i+i*n] += float64(n) // diagonally dominant: no singular pivots
	}
	crossCheck(t, "lu", func(s sched.Scheduler, a *tile.Matrix[float64]) error {
		_, err := core.LU(s, a)
		return err
	}, src, n, nb)
}
