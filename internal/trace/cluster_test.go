// Cluster-trace tests: the native events format round-trips, the merged
// multi-process analysis splits each lane into compute/fetch/commit/idle,
// the comm-aware critical path never reports a better bound than the
// compute-only one, and the Perfetto export carries process lanes, flow
// arrows, and fault instants.
package trace_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"exadla/internal/trace"
)

// clusterFixture builds a two-worker cluster log: task 0 on worker 0,
// task 1 (depending on 0) on worker 1, each split into fetch/compute/
// commit sub-phases inside the whole-attempt span, plus one eviction
// instant. Worker 1's fetch of tile (0,0) starts after worker 0's commit
// of it ends, so the export gets exactly one commit→fetch flow.
func clusterFixture() *trace.Log {
	l := trace.NewLog()
	add := func(e trace.Event) { l.Add(e) }
	// Worker 0 (lane 1): task 0 over [0, 1s].
	add(trace.Event{ID: 0, Name: "potrf", Worker: 0, Attempt: 1, Proc: 1,
		Start: 0, End: 1 * sec, Outcome: trace.OutcomeOK})
	add(trace.Event{ID: 0, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseFetch,
		Start: 0, End: sec / 5, Bytes: 800, Tile: [2]int{0, 0}, HasTile: true})
	add(trace.Event{ID: 0, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseCompute,
		Start: sec / 5, End: 8 * sec / 10})
	add(trace.Event{ID: 0, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseCommit,
		Start: 8 * sec / 10, End: 1 * sec, Bytes: 800, Tile: [2]int{0, 0}, HasTile: true})
	// Worker 1 (lane 2): task 1 over [1.2s, 2.2s], reading tile (0,0).
	add(trace.Event{ID: 1, Name: "trsm", Worker: 1, Attempt: 1, Proc: 2, Deps: []int{0},
		Start: 12 * sec / 10, End: 22 * sec / 10, Outcome: trace.OutcomeOK})
	add(trace.Event{ID: 1, Worker: 1, Attempt: 1, Proc: 2, Phase: trace.PhaseFetch,
		Start: 12 * sec / 10, End: 14 * sec / 10, Bytes: 800, Tile: [2]int{0, 0}, HasTile: true})
	add(trace.Event{ID: 1, Worker: 1, Attempt: 1, Proc: 2, Phase: trace.PhaseCompute,
		Start: 14 * sec / 10, End: 2 * sec})
	add(trace.Event{ID: 1, Worker: 1, Attempt: 1, Proc: 2, Phase: trace.PhaseCommit,
		Start: 2 * sec, End: 22 * sec / 10, Bytes: 800, Tile: [2]int{1, 0}, HasTile: true})
	// The coordinator evicts worker 1 afterwards (lane 2 instant).
	add(trace.Event{ID: -1, Worker: 1, Proc: 2, Phase: trace.PhaseEvicted,
		Start: 23 * sec / 10, End: 23 * sec / 10, Err: "heartbeat silence"})
	return l
}

func TestEventsJSONRoundTrip(t *testing.T) {
	l := clusterFixture()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := l.Events(), got.Events()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip changed events:\n%v\n%v", a, b)
	}
}

func TestReadJSONRejectsUnknownFormat(t *testing.T) {
	if _, err := trace.ReadJSON(strings.NewReader(`{"format":"nope","events":[]}`)); err == nil {
		t.Fatal("want error for unknown format")
	}
	if _, err := trace.ReadJSON(strings.NewReader(`[1,2,3]`)); err == nil {
		t.Fatal("want error for non-envelope JSON")
	}
}

// hostileLane is an envelope whose one event sits on lane math.MaxInt: a
// Log sized to it would need MaxInt+1 shards.
var hostileLane = fmt.Sprintf(`{"format":"exadla-trace-v1","events":[{"Proc":%d}]}`, math.MaxInt)

func TestReadJSONRejectsHostileLane(t *testing.T) {
	for _, doc := range []string{
		hostileLane,
		`{"format":"exadla-trace-v1","events":[{"Proc":-1}]}`,
	} {
		if _, err := trace.ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadJSON accepted %s", doc)
		}
	}
}

// FuzzReadJSON: any input gives an error or a log, never a panic.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := clusterFixture().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(hostileLane))
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := trace.ReadJSON(bytes.NewReader(b))
		if err == nil && l == nil {
			t.Fatal("no error and no log")
		}
	})
}

func TestAnalyzeCluster(t *testing.T) {
	cs := clusterFixture().AnalyzeCluster()
	if len(cs.Procs) != 2 {
		t.Fatalf("lanes %d, want 2", len(cs.Procs))
	}
	// Span covers the durationful slices; the trailing zero-duration
	// eviction instant does not stretch it.
	if math.Abs(cs.Span-2.2) > 1e-9 {
		t.Errorf("span %v, want 2.2", cs.Span)
	}
	for i, want := range []struct {
		proc, tasks                  int
		compute, fetch, commit       float64
		bytesFetched, bytesCommitted int64
	}{
		{1, 1, 0.6, 0.2, 0.2, 800, 800},
		{2, 1, 0.6, 0.2, 0.2, 800, 800},
	} {
		p := cs.Procs[i]
		if p.Proc != want.proc || p.Tasks != want.tasks {
			t.Errorf("lane %d: proc=%d tasks=%d, want %d/%d", i, p.Proc, p.Tasks, want.proc, want.tasks)
		}
		if math.Abs(p.Compute-want.compute) > 1e-9 || math.Abs(p.Fetch-want.fetch) > 1e-9 ||
			math.Abs(p.Commit-want.commit) > 1e-9 {
			t.Errorf("lane %d: compute=%v fetch=%v commit=%v", i, p.Compute, p.Fetch, p.Commit)
		}
		if math.Abs(p.Idle-(cs.Span-1.0)) > 1e-9 {
			t.Errorf("lane %d: idle %v, want %v", i, p.Idle, cs.Span-1.0)
		}
		if p.BytesFetched != want.bytesFetched || p.BytesCommitted != want.bytesCommitted {
			t.Errorf("lane %d: fetched=%d committed=%d", i, p.BytesFetched, p.BytesCommitted)
		}
	}
	if cs.Faults[trace.PhaseEvicted] != 1 || len(cs.Faults) != 1 {
		t.Errorf("faults %v, want one eviction", cs.Faults)
	}
	if len(cs.Transfers) != 1 || cs.Transfers[0].Tile != [2]int{0, 0} ||
		cs.Transfers[0].Bytes != 1600 || cs.Transfers[0].Count != 2 {
		t.Errorf("transfers %v, want tile(0,0) 1600 B over 2 fetches", cs.Transfers)
	}
}

func TestAnalyzeDAGCommAware(t *testing.T) {
	d := clusterFixture().AnalyzeDAG()
	// Compute weight comes from the compute sub-spans (0.6 s each), not the
	// whole-attempt durations — fetch and commit must not be double-counted.
	if math.Abs(d.T1-1.2) > 1e-9 {
		t.Errorf("T1 %v, want 1.2 (compute sub-spans only)", d.T1)
	}
	if math.Abs(d.TInf-1.2) > 1e-9 {
		t.Errorf("TInf %v, want 1.2", d.TInf)
	}
	// The comm-aware path adds each task's fetch+commit time: 2×(0.6+0.4).
	if math.Abs(d.TCommInf-2.0) > 1e-9 {
		t.Errorf("TCommInf %v, want 2.0", d.TCommInf)
	}
	if d.TCommInf < d.TInf {
		t.Errorf("TCommInf %v < TInf %v", d.TCommInf, d.TInf)
	}
	for _, p := range []int{1, 2, 4, 64} {
		dag, comm := d.SpeedupBound(p), d.CommSpeedupBound(p)
		if comm > dag+1e-12 {
			t.Errorf("p=%d: comm-limited bound %v exceeds DAG-limited %v", p, comm, dag)
		}
	}
	if math.Abs(d.CommSpeedupBound(8)-0.6) > 1e-9 {
		t.Errorf("CommSpeedupBound(8) %v, want T1/TCommInf = 0.6", d.CommSpeedupBound(8))
	}
	if d.BytesFetched != 1600 {
		t.Errorf("BytesFetched %d, want 1600", d.BytesFetched)
	}
	if math.Abs(d.FetchTime-0.4) > 1e-9 || math.Abs(d.CommitTime-0.4) > 1e-9 {
		t.Errorf("FetchTime=%v CommitTime=%v, want 0.4/0.4", d.FetchTime, d.CommitTime)
	}
}

func TestAnalyzeDAGCommitDedup(t *testing.T) {
	l := trace.NewLog()
	l.Add(trace.Event{ID: 0, Name: "gemm", Worker: 0, Attempt: 1, Proc: 1,
		Start: 0, End: 1 * sec, Outcome: trace.OutcomeOK})
	l.Add(trace.Event{ID: 0, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseCompute,
		Start: 0, End: sec / 2})
	// One commit RPC writing three tiles records three spans sharing the
	// same interval; only one copy of the interval may be charged.
	for i := 0; i < 3; i++ {
		l.Add(trace.Event{ID: 0, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseCommit,
			Start: sec / 2, End: 1 * sec, Bytes: 100, Tile: [2]int{i, 0}, HasTile: true})
	}
	d := l.AnalyzeDAG()
	if math.Abs(d.CommitTime-0.5) > 1e-9 {
		t.Errorf("CommitTime %v, want 0.5 (deduped per attempt)", d.CommitTime)
	}
	if math.Abs(d.TCommInf-1.0) > 1e-9 {
		t.Errorf("TCommInf %v, want 1.0", d.TCommInf)
	}
}

func TestWriteChromeShapeOnClusterLog(t *testing.T) {
	events := decodeChrome(t, clusterFixture())
	names := map[string]int{}
	var lanes []string
	flows := map[string]map[string]int{} // cat → ph → count
	for _, e := range events {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		cat, _ := e["cat"].(string)
		names[name]++
		if name == "process_name" {
			args := e["args"].(map[string]any)
			lanes = append(lanes, args["name"].(string))
		}
		if ph == "s" || ph == "f" {
			if flows[cat] == nil {
				flows[cat] = map[string]int{}
			}
			flows[cat][ph]++
		}
		if cat == "fault" {
			if ph != "i" {
				t.Errorf("fault event has phase %q, want instant", ph)
			}
		}
	}
	want := []string{"worker 0", "worker 1"}
	if !reflect.DeepEqual(lanes, want) {
		t.Errorf("process lanes %v, want %v", lanes, want)
	}
	if flows["tile"]["s"] != 1 || flows["tile"]["f"] != 1 {
		t.Errorf("tile flow events s=%d f=%d, want one commit→fetch pair", flows["tile"]["s"], flows["tile"]["f"])
	}
	if flows["dep"]["s"] != 1 || flows["dep"]["f"] != 1 {
		t.Errorf("dep flow events s=%d f=%d, want one pair for task 1's edge", flows["dep"]["s"], flows["dep"]["f"])
	}
	if names[trace.PhaseEvicted] != 1 {
		t.Errorf("eviction instants %d, want 1", names[trace.PhaseEvicted])
	}
	for _, phase := range []string{trace.PhaseFetch, trace.PhaseCompute, trace.PhaseCommit} {
		if names[phase] != 2 {
			t.Errorf("%s slices %d, want 2", phase, names[phase])
		}
	}
}

// mirrorFixture is a worker's local span mirror, as an exadist -join -obs
// worker serves it on /trace: worker 0's events on process lane 1, a
// fetch sub-phase span plus partition and corrupt-payload fault instants.
func mirrorFixture() *trace.Log {
	l := trace.NewLog()
	l.Add(trace.Event{ID: 3, Name: "gemm", Worker: 0, Attempt: 1, Proc: 1,
		Start: 0, End: sec, Outcome: trace.OutcomeOK})
	l.Add(trace.Event{ID: 3, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseFetch,
		Start: 0, End: sec / 4, Bytes: 800, Tile: [2]int{2, 1}, HasTile: true})
	l.Add(trace.Event{ID: -1, Worker: 0, Proc: 1, Phase: trace.PhasePartition,
		Start: sec / 2, End: sec / 2, Err: "enter"})
	l.Add(trace.Event{ID: 3, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseCorrupt,
		Start: 3 * sec / 4, End: 3 * sec / 4, Err: "tile (2,1) checksum"})
	return l
}

// TestWriteChromeWorkerMirror pins that the one Chrome writer keeps a
// worker mirror's sub-phase slices and fault instants on the worker's
// process lane instead of dropping every phased event.
func TestWriteChromeWorkerMirror(t *testing.T) {
	events := decodeChrome(t, mirrorFixture())
	pid := -1.0
	for _, e := range events {
		if e["name"] == "process_name" && e["args"].(map[string]any)["name"] == "worker 0" {
			pid = e["pid"].(float64)
		}
	}
	if pid < 0 {
		t.Fatalf("no worker 0 process lane: %v", events)
	}
	got := map[string]string{}
	for _, e := range events {
		if e["pid"].(float64) != pid {
			continue
		}
		if cat, _ := e["cat"].(string); cat == "phase" || cat == "fault" {
			got[e["name"].(string)] = e["ph"].(string)
		}
	}
	want := map[string]string{
		trace.PhaseFetch: "X", trace.PhasePartition: "i", trace.PhaseCorrupt: "i",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("worker 0 phase/fault events %v, want %v", got, want)
	}
}
