// Chrome/Perfetto export tests for the span-model additions: dependence
// flow events, counter tracks, the skipped-task lane, and span args.
package trace_test

import (
	"encoding/json"
	"strings"
	"testing"

	"exadla/internal/trace"
)

func decodeChrome(t *testing.T, l *trace.Log) []map[string]any {
	t.Helper()
	var sb strings.Builder
	if err := l.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return events
}

func byPhase(events []map[string]any) map[string][]map[string]any {
	m := map[string][]map[string]any{}
	for _, e := range events {
		ph := e["ph"].(string)
		m[ph] = append(m[ph], e)
	}
	return m
}

func TestWriteChromeFlowEvents(t *testing.T) {
	l := trace.NewLog()
	// a on w0, b on w1 depends on a; flow must connect a.End → b.Start.
	l.TaskSpan(span(0, "a", 0, nil, 0, 1000))
	l.TaskSpan(span(1, "b", 1, []int{0}, 1000, 3000))
	ph := byPhase(decodeChrome(t, l))

	if len(ph["s"]) != 1 || len(ph["f"]) != 1 {
		t.Fatalf("flow events: %d starts, %d finishes, want 1+1", len(ph["s"]), len(ph["f"]))
	}
	s, f := ph["s"][0], ph["f"][0]
	if s["id"] != f["id"] {
		t.Errorf("flow ids differ: %v vs %v", s["id"], f["id"])
	}
	if s["ts"].(float64) != 1 || s["tid"].(float64) != 0 {
		t.Errorf("flow start at ts=%v tid=%v, want producer end 1µs on lane 0", s["ts"], s["tid"])
	}
	if f["ts"].(float64) != 1 || f["tid"].(float64) != 1 {
		t.Errorf("flow finish at ts=%v tid=%v, want consumer start 1µs on lane 1", f["ts"], f["tid"])
	}
	if f["bp"] != "e" {
		t.Errorf("flow finish bp=%v, want \"e\"", f["bp"])
	}
}

func TestWriteChromeFlowTargetsFirstAttempt(t *testing.T) {
	l := trace.NewLog()
	l.TaskSpan(span(0, "a", 0, nil, 0, 1000))
	// b retried once: the flow must land on attempt 1, and the span args
	// must carry attempt/outcome.
	l.TaskSpan(trace.Event{ID: 1, Name: "b", Worker: 1, Attempt: 1, Deps: []int{0},
		Ready: 1000, Start: 1000, End: 2000, Outcome: trace.OutcomeRetried, Err: "transient"})
	l.TaskSpan(trace.Event{ID: 1, Name: "b", Worker: 0, Attempt: 2, Deps: []int{0},
		Ready: 2000, Start: 2000, End: 4000, Outcome: trace.OutcomeOK})
	ph := byPhase(decodeChrome(t, l))

	if len(ph["s"]) != 1 {
		t.Fatalf("%d flow starts, want 1 (one per edge, not per attempt)", len(ph["s"]))
	}
	if ts := ph["f"][0]["ts"].(float64); ts != 1 {
		t.Errorf("flow lands at %vµs, want first attempt start 1µs", ts)
	}
	var sawRetry, sawErr bool
	for _, x := range ph["X"] {
		args := x["args"].(map[string]any)
		if args["outcome"] == "retried" {
			sawRetry = true
			if args["error"] == "transient" {
				sawErr = true
			}
		}
	}
	if !sawRetry || !sawErr {
		t.Errorf("retried attempt args missing: retry=%v err=%v", sawRetry, sawErr)
	}
}

func TestWriteChromeCountersAndSkipped(t *testing.T) {
	l := trace.NewLog()
	l.TaskSpan(trace.Event{ID: 0, Name: "a", Worker: 0, Attempt: 1,
		Ready: 500, Start: 1000, End: 2000, Outcome: trace.OutcomeFailed, Err: "boom"})
	l.TaskSpan(trace.Event{ID: 1, Name: "b", Worker: -1, Attempt: 0, Deps: []int{0},
		Start: 2000, End: 2000, Outcome: trace.OutcomeSkipped})
	events := decodeChrome(t, l)
	ph := byPhase(events)

	counters := map[string]bool{}
	for _, c := range ph["C"] {
		counters[c["name"].(string)] = true
	}
	if !counters["queue depth"] || !counters["busy workers"] {
		t.Errorf("counter tracks %v, want queue depth and busy workers", counters)
	}
	// Queue depth rises to 1 at Ready=500ns (0.5µs), back to 0 at Start.
	var sawDepth1 bool
	for _, c := range ph["C"] {
		if c["name"] == "queue depth" && c["ts"].(float64) == 0.5 &&
			c["args"].(map[string]any)["ready"].(float64) == 1 {
			sawDepth1 = true
		}
	}
	if !sawDepth1 {
		t.Error("queue depth never showed the waiting task")
	}

	if len(ph["i"]) != 1 {
		t.Fatalf("%d instant events, want 1 skipped marker", len(ph["i"]))
	}
	skipLane := ph["i"][0]["tid"].(float64)
	var named bool
	for _, m := range ph["M"] {
		if m["name"] == "thread_name" && m["tid"].(float64) == skipLane &&
			m["args"].(map[string]any)["name"] == "skipped" {
			named = true
		}
	}
	if !named {
		t.Errorf("skipped lane %v has no thread_name metadata", skipLane)
	}
}
