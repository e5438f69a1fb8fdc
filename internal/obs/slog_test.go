package obs

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"exadla/internal/ft"
	"exadla/internal/sched"
	"exadla/internal/trace"
)

func TestFailureLoggerKinds(t *testing.T) {
	var buf bytes.Buffer
	fn := FailureLogger(slog.New(slog.NewTextHandler(&buf, nil)))

	fn(trace.Event{Name: "gemm", ID: 3, Attempt: 1, Outcome: trace.OutcomeRetried},
		fmt.Errorf("pre-run: %w", sched.ErrInjected))
	fn(trace.Event{Name: "verify", ID: 4, Attempt: 1, Outcome: trace.OutcomeCorrected},
		&ft.CorruptionError{TileRow: 1, TileCol: 2, Faults: []ft.Fault{{}}, Corrected: 1})
	fn(trace.Event{Name: "potrf", ID: 5, Attempt: 2, Outcome: trace.OutcomeFailed},
		fmt.Errorf("panic: index out of range: %w", sched.ErrPanicked))
	fn(trace.Event{Name: "trsm", ID: 6, Attempt: 3, Outcome: trace.OutcomeFailed},
		errors.New("singular"))

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d log lines, want 4:\n%s", len(lines), out)
	}
	for i, want := range []string{"kind=chaos", "kind=corruption-corrected", "kind=panic", "kind=error"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d missing %s: %s", i, want, lines[i])
		}
	}
	// Retried attempts log at WARN, permanent failures at ERROR.
	if !strings.Contains(lines[0], "level=WARN") || !strings.Contains(lines[2], "level=ERROR") {
		t.Errorf("levels wrong:\n%s", out)
	}
	if !strings.Contains(lines[0], "kernel=gemm") || !strings.Contains(lines[0], "seq=3") ||
		!strings.Contains(lines[0], "attempt=1") {
		t.Errorf("identifying attrs missing: %s", lines[0])
	}
}
