package dist

// Pins the trace record's encodings and the simulated analyses byte for
// byte: the exadla-trace-v1 JSON of one event of each kind, the gob bytes
// of a heartbeat that ships those events to the coordinator, and every
// analysis of one hand-built simulated schedule. A change to trace.Event
// that alters testdata/format changes a file format or the wire, so it
// needs a new format name or protocolVersion of its own.

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"exadla/internal/sched"
	"exadla/internal/trace"
)

// formatEvents is one event of each kind a trace carries.
func formatEvents() []trace.Event {
	return []trace.Event{
		// Whole attempts: OK with deps and a ready time, retried, failed,
		// timed out, and a skipped dependent.
		{ID: 0, Name: "potrf", Worker: 0, Attempt: 1, Ready: 100, Start: 200, End: 1200},
		{ID: 1, Name: "trsm", Worker: 1, Attempt: 1, Deps: []int{0}, Ready: 1200, Start: 1300,
			End: 1900, Outcome: trace.OutcomeRetried, Err: "transient"},
		{ID: 1, Name: "trsm", Worker: 0, Attempt: 2, Deps: []int{0}, Ready: 1900, Start: 2000,
			End: 2700, Outcome: trace.OutcomeOK},
		{ID: 2, Name: "gemm", Worker: 1, Attempt: 1, Deps: []int{0, 1}, Ready: 2700, Start: 2800,
			End: 3800, Outcome: trace.OutcomeTimedOut, Err: "task deadline exceeded"},
		{ID: 3, Name: "syrk", Worker: 0, Attempt: 1, Deps: []int{1}, Ready: 2700, Start: 2900,
			End: 3100, Outcome: trace.OutcomeFailed, Err: "boom"},
		{ID: 4, Name: "potrf", Worker: -1, Deps: []int{3}, Start: 3100, End: 3100,
			Outcome: trace.OutcomeSkipped},
		// A distributed attempt on worker 0 (lane 1): the whole attempt and
		// its fetch, compute and commit phases.
		{ID: 5, Name: "gemm", Worker: 0, Attempt: 1, Deps: []int{2}, Start: 4000, End: 7000, Proc: 1},
		{ID: 5, Name: "gemm", Worker: 0, Attempt: 1, Start: 4000, End: 4500, Proc: 1,
			Phase: trace.PhaseFetch, Bytes: 8192, Tile: [2]int{2, 1}, HasTile: true},
		{ID: 5, Name: "gemm", Worker: 0, Attempt: 1, Start: 4500, End: 6500, Proc: 1,
			Phase: trace.PhaseCompute},
		{ID: 5, Name: "gemm", Worker: 0, Attempt: 1, Start: 6500, End: 7000, Proc: 1,
			Phase: trace.PhaseCommit, Bytes: 8192, Tile: [2]int{2, 2}, HasTile: true},
		// A fault instant that belongs to no task.
		{ID: -1, Name: trace.PhaseEvicted, Worker: 1, Start: 7500, End: 7500,
			Phase: trace.PhaseEvicted, Err: "missed 3 heartbeats"},
	}
}

// formatGraph is a hand-built graph with fixed costs: a panel, two
// independent updates joined by a fork–join barrier, and a tail.
func formatGraph() *sched.Graph {
	return &sched.Graph{Nodes: []sched.GraphNode{
		{Name: "potrf", Cost: 0.002, Priority: 3},
		{Name: "trsm", Cost: 0.001, Deps: []int{0}, Priority: 2},
		{Name: "trsm", Cost: 0.0015, Deps: []int{0}, Priority: 2},
		{Name: "barrier", Barrier: true, Deps: []int{1, 2}},
		{Name: "syrk", Cost: 0.0025, Deps: []int{3}, Priority: 1},
		{Name: "gemm", Cost: 0.003, Deps: []int{3}},
		{Name: "gemm", Cost: 0.0005, Deps: []int{1}},
		{Name: "potrf", Cost: 0.002, Deps: []int{4, 5}, Priority: 3},
	}}
}

// golden compares got with testdata/format/name.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "format", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestTraceFormatsPinned(t *testing.T) {
	if protocolVersion != 3 {
		t.Errorf("protocolVersion = %d, want 3", protocolVersion)
	}

	l := trace.NewLog()
	for _, e := range formatEvents() {
		l.Add(e)
	}
	var js bytes.Buffer
	if err := l.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	golden(t, "events.json", js.Bytes())

	var wire bytes.Buffer
	hb := HeartbeatArgs{Worker: 1, Spans: formatEvents(), SpanBase: 40,
		OffsetNS: -1234, RTTNS: 5678, HasOffset: true}
	if err := gob.NewEncoder(&wire).Encode(&hb); err != nil {
		t.Fatal(err)
	}
	golden(t, "heartbeat.gob.hex", []byte(hex.Dump(wire.Bytes())))

	sl := trace.NewLog(sched.Simulate(formatGraph(), 2)...)
	var an bytes.Buffer
	fmt.Fprintf(&an, "%+v\n", sl.AnalyzeDAG())
	golden(t, "sim_analyze.txt", an.Bytes())
	var gantt bytes.Buffer
	if err := sl.Gantt(&gantt, 48); err != nil {
		t.Fatal(err)
	}
	golden(t, "sim_gantt.txt", gantt.Bytes())
	var chrome bytes.Buffer
	if err := sl.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	golden(t, "sim_chrome.json", chrome.Bytes())
}
