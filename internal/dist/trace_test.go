package dist_test

// Cluster-tracing tests of the distributed runtime: worker span shards
// ship home on heartbeats, land exactly once, and merge — re-based onto
// the coordinator's clock — into one timeline whose successful spans match
// the coordinator's completion count one for one. Fault runs additionally
// pin the fault instants (evictions, reaps, stale commits, wire chaos)
// and the structured Events hook.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/trace"
)

// okSpans returns the merged whole-attempt spans that completed a task.
func okSpans(l *trace.Log) []trace.Event {
	var ok []trace.Event
	for _, e := range l.Events() {
		if e.Phase == "" && e.Attempt > 0 && e.Outcome == trace.OutcomeOK {
			ok = append(ok, e)
		}
	}
	return ok
}

// checkLaneMonotone asserts that each process lane's whole-attempt spans,
// after clock alignment, are sequential: every process executes one task
// at a time, and re-basing by one constant offset per process must
// preserve that order.
func checkLaneMonotone(t *testing.T, l *trace.Log) {
	t.Helper()
	lastEnd := map[int]int64{}
	lastID := map[int]int{}
	for _, e := range l.Events() { // Events is sorted by Start
		if e.Phase != "" || e.Attempt == 0 {
			continue
		}
		if prev, seen := lastEnd[e.Proc]; seen && e.Start < prev {
			t.Errorf("lane %d: task %d starts at %d before task %d ended at %d",
				e.Proc, e.ID, e.Start, lastID[e.Proc], prev)
		}
		if e.End < e.Start {
			t.Errorf("lane %d task %d: end %d before start %d", e.Proc, e.ID, e.End, e.Start)
		}
		lastEnd[e.Proc], lastID[e.Proc] = e.End, e.ID
	}
}

// checkAligned asserts every span's timestamps landed inside the run's
// wall-clock window on the coordinator's clock (raw worker UnixNano
// timestamps would be ~50 years out).
func checkAligned(t *testing.T, l *trace.Log, wallNS int64) {
	t.Helper()
	const slack = int64(200 * time.Millisecond)
	for _, e := range l.Events() {
		if e.Start < -slack || e.End > wallNS+slack {
			t.Fatalf("span %+v outside the run window [0, %d]: clock alignment broken", e, wallNS)
		}
	}
}

func TestDistClusterTraceCleanRun(t *testing.T) {
	const seed, n, nb = 77, 192, 32
	a := spdTiled(seed, n, nb)
	start := time.Now()
	c, err := runDistributed(t, fastOpts(dist.OpCholesky, a),
		make([]dist.WorkerOptions, 2))
	if err != nil {
		t.Fatal(err)
	}
	wallNS := time.Since(start).Nanoseconds()

	l := c.ClusterLog()
	s := c.Stats()
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
	checkLaneMonotone(t, l)
	checkAligned(t, l, wallNS)

	// Every successful span carries the edges a model recorder derives for
	// the same program over the coordinator's [2]int tile handles.
	handles := func(cs [][2]int) []sched.Handle {
		hs := make([]sched.Handle, len(cs))
		for i, c := range cs {
			hs[i] = c
		}
		return hs
	}
	rec := sched.NewModelRecorder()
	for _, st := range core.Program(dist.OpCholesky, a.NT, a.NT, 0) {
		r, w := st.Accesses()
		rec.Submit(sched.Task{Name: st.Kind, Reads: handles(r), Writes: handles(w)})
	}
	model := rec.Graph().Nodes
	for _, e := range ok {
		got, want := slices.Clone(e.Deps), slices.Clone(model[e.ID].Deps)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("task %d (%s): span deps %v, model deps %v", e.ID, e.Name, got, want)
		}
	}

	// The comm-aware DAG analysis sees the same wire traffic the
	// coordinator metered (clean run: no retransmitted fetches).
	d := l.AnalyzeDAG()
	if d.BytesFetched != s.BytesFetched {
		t.Errorf("trace bytes fetched %d != stats %d", d.BytesFetched, s.BytesFetched)
	}
	if d.TCommInf < d.TInf {
		t.Errorf("TCommInf %v < TInf %v", d.TCommInf, d.TInf)
	}
	for _, p := range []int{1, 2, 8} {
		if d.CommSpeedupBound(p) > d.SpeedupBound(p)+1e-12 {
			t.Errorf("p=%d: comm bound %v > DAG bound %v", p, d.CommSpeedupBound(p), d.SpeedupBound(p))
		}
	}

	// Both worker lanes shipped sub-phase spans.
	cs := l.AnalyzeCluster()
	workerLanes := 0
	for _, p := range cs.Procs {
		if p.Proc > 0 && p.Tasks > 0 {
			workerLanes++
			if p.Compute <= 0 || p.Fetch <= 0 || p.Commit <= 0 {
				t.Errorf("lane %d: compute=%v fetch=%v commit=%v, want all positive",
					p.Proc, p.Compute, p.Fetch, p.Commit)
			}
		}
	}
	if workerLanes != 2 {
		t.Errorf("worker lanes with tasks = %d, want 2", workerLanes)
	}
	if len(cs.Faults) != 0 {
		t.Errorf("clean run recorded faults: %v", cs.Faults)
	}
}

func TestDistClusterTraceFaultInstants(t *testing.T) {
	const seed, n, nb = 78, 192, 32
	a := spdTiled(seed, n, nb)
	opt := killOpts(dist.OpCholesky, a)
	opt.WaitWorkers = 2

	var mu sync.Mutex
	var hooked []trace.Event
	opt.Events = func(e trace.Event) {
		mu.Lock()
		hooked = append(hooked, e)
		mu.Unlock()
	}

	// One worker dies mid-lease: its heartbeat silence trips DeadAfter
	// (killOpts puts it well before lease expiry) while its leased task
	// blocks the DAG, so the eviction is guaranteed to land during the
	// run. The other worker sits behind delay-only wire chaos — harmless,
	// but every injected delay is recorded.
	workers := []dist.WorkerOptions{
		{KillAfter: 3},
		{Chaos: dist.NetChaos{Delay: 0.5, MaxDelay: time.Millisecond, Seed: 9}},
	}
	c, err := runDistributed(t, opt, workers)
	if err != nil {
		t.Fatal(err)
	}

	cl := c.ClusterLog()
	cs := cl.AnalyzeCluster()
	for _, kind := range []string{trace.PhaseEvicted, trace.PhaseChaos} {
		if cs.Faults[kind] == 0 {
			t.Errorf("merged trace has no %s instant: %v", kind, cs.Faults)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// The hook receives the trace's own fault instants: each hooked event
	// is one of ClusterLog's, field for field except the times, which
	// ClusterLog re-bases onto the coordinator's clock.
	type instant struct {
		phase, err          string
		id, worker, attempt int
	}
	key := func(e trace.Event) instant { return instant{e.Phase, e.Err, e.ID, e.Worker, e.Attempt} }
	logged := map[instant]int{}
	for _, e := range cl.Events() {
		if trace.IsFault(e.Phase) {
			logged[key(e)]++
		}
	}
	kinds := map[string]int{}
	for _, e := range hooked {
		if logged[key(e)] == 0 {
			t.Errorf("hooked event %+v matches no fault instant of ClusterLog", e)
		}
		logged[key(e)]--
		kinds[e.Phase]++
		if e.Phase == trace.PhaseEvicted && e.Worker < 0 {
			t.Errorf("eviction event without a worker: %+v", e)
		}
	}
	for _, kind := range []string{trace.PhaseEvicted, trace.PhaseChaos} {
		if kinds[kind] == 0 {
			t.Errorf("Events hook never saw %s: %v", kind, kinds)
		}
	}
	// The status's eviction list is the same record as the instants.
	ev := c.Status().Evictions
	if len(ev) != kinds[trace.PhaseEvicted] {
		t.Errorf("Status lists %d evictions, the hook saw %d", len(ev), kinds[trace.PhaseEvicted])
	}
	for _, e := range ev {
		if e.Worker < 0 || e.Reason != "heartbeat silence" || e.AtMS < 0 {
			t.Errorf("eviction %+v, want a worker evicted for heartbeat silence", e)
		}
	}
}

func TestDistClusterTraceStaleCommit(t *testing.T) {
	const seed, n, nb = 81, 128, 32
	a := spdTiled(seed, n, nb)
	// A single worker hangs past its lease: the lease is reaped mid-hang,
	// and the worker wakes and commits against the revoked token while the
	// job is still running (the coordinator's local fallback is held off by
	// a long LocalDelay), so the commit is recorded as stale. The worker
	// then simply pulls the next lease and finishes the job.
	opt := fastOpts(dist.OpCholesky, a)
	opt.Lease = 150 * time.Millisecond
	opt.DeadAfter = 2 * time.Second // heartbeats flow during the hang anyway
	opt.LocalDelay = 600 * time.Millisecond
	c, err := runDistributed(t, opt, []dist.WorkerOptions{
		{HangAfter: 2, HangFor: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := c.ClusterLog().AnalyzeCluster()
	for _, kind := range []string{trace.PhaseReaped, trace.PhaseStale} {
		if cs.Faults[kind] == 0 {
			t.Errorf("merged trace has no %s instant: %v", kind, cs.Faults)
		}
	}
	if s := c.Stats(); s.CommitsRejected == 0 {
		t.Errorf("no commit was rejected: %+v", s)
	}
}

func TestDistRPCMetricsPrometheus(t *testing.T) {
	const seed, n, nb = 79, 128, 32
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	reg := metrics.New()
	opt.Registry = reg
	// The lone worker hangs 250 ms mid-run (within its 300 ms lease) so the
	// run lasts long enough for heartbeats to fire and be metered.
	if _, err := runDistributed(t, opt, []dist.WorkerOptions{
		{HangAfter: 2, HangFor: 250 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, m := range []string{"register", "lease", "heartbeat", "get", "commit", "bye"} {
		name := "dist_rpc_" + m + "_ns"
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Errorf("missing histogram %s in Prometheus export", name)
			continue
		}
		checkPromHistogram(t, text, name)
	}
	for _, name := range []string{"dist_rpc_get_bytes", "dist_rpc_commit_bytes"} {
		checkPromHistogram(t, text, name)
	}
}

// TestDistStatsMirrorIntoSharedRegistry: every StatsSnapshot field is
// mirrored under its metric tag, and two jobs sharing one registry each
// keep their own Stats while the registry holds the sums.
func TestDistStatsMirrorIntoSharedRegistry(t *testing.T) {
	reg := metrics.New()
	var runs []dist.StatsSnapshot
	for seed := int64(80); seed < 82; seed++ {
		opt := fastOpts(dist.OpCholesky, spdTiled(seed, 64, 16))
		opt.Registry = reg
		c, err := runDistributed(t, opt, make([]dist.WorkerOptions, 1))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, c.Stats())
	}
	const tasks = 20 // 4×4 tiles: 4 potrf, 6 trsm, 6 syrk, 4 gemm
	for k, s := range runs {
		if s.TasksCompleted != tasks {
			t.Errorf("run %d: Stats().TasksCompleted = %d, want its own %d", k, s.TasksCompleted, tasks)
		}
	}
	counters := reg.Snapshot().Counters
	typ := reflect.TypeOf(dist.StatsSnapshot{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Tag.Get("metric")
		if !strings.HasPrefix(name, "dist.") {
			t.Errorf("field %s has no dist.* metric tag", typ.Field(i).Name)
			continue
		}
		sum := reflect.ValueOf(runs[0]).Field(i).Int() + reflect.ValueOf(runs[1]).Field(i).Int()
		if got, ok := counters[name]; !ok || got != sum {
			t.Errorf("%s = %d (registered %v), want the two runs' sum %d", name, got, ok, sum)
		}
	}
}

// checkPromHistogram asserts the named histogram exports cumulative
// power-of-two bucket edges folding into a +Inf bucket that equals _count.
func checkPromHistogram(t *testing.T, text, name string) {
	t.Helper()
	var count, infCum int64 = -1, -1
	var prevCum int64
	var edges []int64
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{le=\"+Inf\"} "):
			infCum, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
			q := strings.Index(rest, "\"")
			edge, err := strconv.ParseInt(rest[:q], 10, 64)
			if err != nil {
				t.Errorf("%s: unparsable bucket edge in %q", name, line)
				continue
			}
			cum, _ := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if cum < prevCum {
				t.Errorf("%s: bucket counts not cumulative at le=%d", name, edge)
			}
			prevCum = cum
			edges = append(edges, edge)
		case strings.HasPrefix(line, name+"_count "):
			count, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	if count <= 0 {
		t.Errorf("%s: count %d, want > 0 observations", name, count)
	}
	if infCum != count {
		t.Errorf("%s: +Inf bucket %d != count %d", name, infCum, count)
	}
	for i, e := range edges {
		// Power-of-two ladder: each edge is 2^k − 1 (or 0 for the v==0
		// bucket); the saturated MaxInt64 bucket folds into +Inf only.
		if e != 0 && (e+1)&e != 0 {
			t.Errorf("%s: edge %d is not 2^k−1", name, e)
		}
		if i > 0 && e <= edges[i-1] {
			t.Errorf("%s: edges not ascending: %v", name, edges)
		}
	}
}

func TestDistClusterTraceChromeExport(t *testing.T) {
	const seed, n, nb = 80, 192, 32
	a := spdTiled(seed, n, nb)
	opt := fastOpts(dist.OpCholesky, a)
	opt.WaitWorkers = 2 // both lanes must carry work, even with a late registration
	c, err := runDistributed(t, opt, make([]dist.WorkerOptions, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.ClusterLog().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("cluster export is not Perfetto-loadable JSON: %v", err)
	}
	lanes := map[string]bool{}
	flows := 0
	for _, e := range events {
		if e["name"] == "process_name" {
			lanes[e["args"].(map[string]any)["name"].(string)] = true
		}
		if e["ph"] == "s" {
			flows++
		}
	}
	if !lanes["worker 0"] || !lanes["worker 1"] {
		t.Errorf("missing worker process lanes: %v", lanes)
	}
	if flows == 0 {
		t.Error("no commit→fetch flow events in the cluster export")
	}

	// The native form round-trips and summarizes identically.
	var nat bytes.Buffer
	if err := c.ClusterLog().WriteJSON(&nat); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(&nat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(back.Events()), len(c.ClusterLog().Events()); got != want {
		t.Errorf("native round trip lost events: %d != %d", got, want)
	}
}
