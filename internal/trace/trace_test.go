package trace_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"exadla/internal/trace"
)

// ran logs one completed first attempt of task id as a span.
func ran(l *trace.Log, id int, name string, worker int, start, end int64) {
	l.TaskSpan(trace.Event{ID: id, Name: name, Worker: worker, Attempt: 1, Start: start, End: end})
}

func TestAnalyzeBasics(t *testing.T) {
	l := trace.NewLog()
	// Two workers, each busy 1s over a 2s span → utilization 0.5.
	ran(l, 0, "gemm", 0, 0, 1e9)
	ran(l, 1, "trsm", 1, 1e9, 2e9)
	st := l.AnalyzeDAG()
	if st.Tasks != 2 || st.Attempts != 2 || st.Workers != 2 {
		t.Fatalf("tasks=%d attempts=%d workers=%d", st.Tasks, st.Attempts, st.Workers)
	}
	if math.Abs(st.Makespan-2) > 1e-9 {
		t.Errorf("makespan %v", st.Makespan)
	}
	if math.Abs(st.T1-2) > 1e-9 {
		t.Errorf("busy %v", st.T1)
	}
	if u := st.Speedup() / float64(st.Workers); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization %v", u)
	}
	if math.Abs(st.ByKernel["gemm"]-1) > 1e-9 {
		t.Errorf("gemm time %v", st.ByKernel["gemm"])
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := trace.NewLog().AnalyzeDAG()
	if st.Tasks != 0 || st.Speedup() != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestEventsSorted(t *testing.T) {
	l := trace.NewLog()
	ran(l, 0, "b", 0, 100, 200)
	ran(l, 1, "a", 0, 0, 50)
	ev := l.Events()
	if ev[0].Name != "a" || ev[1].Name != "b" {
		t.Errorf("events not sorted: %v", ev)
	}
}

func TestReset(t *testing.T) {
	l := trace.NewLog()
	ran(l, 0, "a", 0, 0, 1)
	l.Reset()
	if len(l.Events()) != 0 {
		t.Error("reset did not clear events")
	}
}

func TestGantt(t *testing.T) {
	l := trace.NewLog()
	ran(l, 0, "potrf", 0, 0, 5e8)
	ran(l, 1, "gemm", 1, 5e8, 1e9)
	var sb strings.Builder
	if err := l.Gantt(&sb, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "w0") || !strings.Contains(out, "w1") {
		t.Errorf("missing worker rows:\n%s", out)
	}
	if !strings.Contains(out, "p") || !strings.Contains(out, "g") {
		t.Errorf("missing kernel initials:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Errorf("missing legend:\n%s", out)
	}
	// Worker 0 idle in the second half: its row must contain '.' cells.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], ".") {
		t.Errorf("worker 0 shows no idle time:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var sb strings.Builder
	if err := trace.NewLog().Gantt(&sb, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Errorf("unexpected output: %s", sb.String())
	}
}

func TestWriteChrome(t *testing.T) {
	l := trace.NewLog()
	ran(l, 0, "potrf", 0, 1000, 2000)
	ran(l, 1, "gemm", 1, 2000, 5000)
	var sb strings.Builder
	if err := l.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var xs []map[string]any
	threadNames := map[string]bool{}
	for _, e := range events {
		switch e["ph"] {
		case "X":
			xs = append(xs, e)
		case "M":
			if e["name"] == "thread_name" {
				threadNames[e["args"].(map[string]any)["name"].(string)] = true
			}
		}
	}
	if len(xs) != 2 {
		t.Fatalf("%d X events", len(xs))
	}
	if xs[0]["name"] != "potrf" {
		t.Errorf("first event: %v", xs[0])
	}
	if xs[1]["dur"].(float64) != 3 { // 3000ns = 3µs
		t.Errorf("duration: %v", xs[1]["dur"])
	}
	if xs[1]["tid"].(float64) != 1 {
		t.Errorf("worker lane: %v", xs[1]["tid"])
	}
	if !threadNames["worker 0"] || !threadNames["worker 1"] {
		t.Errorf("missing thread_name metadata: %v", threadNames)
	}
}
