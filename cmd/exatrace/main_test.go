package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"exadla/internal/trace"
)

// readChrome decodes a Chrome trace-event file into its events.
func readChrome(t *testing.T, path string) []map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("%s is not Chrome trace JSON: %v", path, err)
	}
	return events
}

func TestRunSimulatedChrome(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chol.json")
	var stdout strings.Builder
	if err := run([]string{"-op", "cholesky", "-n", "128", "-nb", "32", "-chrome", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cholesky dataflow", "critical path:", "speedup", "legend:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
	// The header and the critical-path line print one analysis: the same
	// work and span.
	header := regexp.MustCompile(`tasks, (\S+)s total work, (\S+)s critical path`).FindStringSubmatch(stdout.String())
	crit := regexp.MustCompile(`critical path: T1 (\S+)s, T∞ (\S+)s`).FindStringSubmatch(stdout.String())
	if header == nil || crit == nil {
		t.Fatalf("report lacks the work/span header or the critical-path line:\n%s", stdout.String())
	}
	if header[1] != crit[1] || header[2] != crit[2] {
		t.Errorf("header work %s span %s, critical-path line T1 %s T∞ %s", header[1], header[2], crit[1], crit[2])
	}
	ph := map[string]int{}
	for _, e := range readChrome(t, out) {
		ph[e["ph"].(string)]++
	}
	if ph["X"] == 0 {
		t.Error("Chrome export has no task slices")
	}
	if ph["s"] == 0 || ph["s"] != ph["f"] {
		t.Errorf("flow events s=%d f=%d, want matched dependence pairs", ph["s"], ph["f"])
	}
}

func TestRunClusterSummary(t *testing.T) {
	const sec = int64(1e9)
	l := trace.NewLog()
	l.Add(trace.Event{ID: 0, Name: "potrf", Worker: 0, Attempt: 1, Proc: 1,
		Start: 0, End: sec, Outcome: trace.OutcomeOK})
	l.Add(trace.Event{ID: 0, Worker: 0, Attempt: 1, Proc: 1, Phase: trace.PhaseCompute,
		Start: 0, End: sec})
	l.Add(trace.Event{ID: 0, Worker: 1, Attempt: 2, Proc: 2, Phase: trace.PhaseSpecTwin,
		Start: sec / 2, End: sec / 2})
	l.Add(trace.Event{ID: -1, Worker: 1, Proc: 2, Phase: trace.PhaseCorrupt,
		Start: sec / 2, End: sec / 2, Err: "tile (0,0) checksum"})
	dir := t.TempDir()
	events := filepath.Join(dir, "events.json")
	f, err := os.Create(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(dir, "cluster.json")
	var stdout strings.Builder
	if err := run([]string{"-cluster", events, "-chrome", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"worker 0", "faults:", trace.PhaseSpecTwin, trace.PhaseCorrupt} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, stdout.String())
		}
	}
	faults := map[string]bool{}
	for _, e := range readChrome(t, out) {
		if e["cat"] == "fault" && e["ph"] == "i" {
			faults[e["name"].(string)] = true
		}
	}
	if !faults[trace.PhaseSpecTwin] || !faults[trace.PhaseCorrupt] {
		t.Errorf("Chrome export fault instants %v, want spec_twin and payload_corrupt", faults)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var stdout strings.Builder
	if err := run([]string{"-op", "svd"}, &stdout); err == nil {
		t.Error("unknown op accepted")
	}
	if err := run([]string{"-cluster", filepath.Join(t.TempDir(), "missing.json")}, &stdout); err == nil {
		t.Error("missing cluster trace accepted")
	}
}
