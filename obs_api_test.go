package exadla_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"exadla"
	"exadla/internal/trace"
)

// TestSpanOutcomesMatchFaultStats is the chaos acceptance check: a run
// under WithChaos + WithTaskRetry must produce a span trace whose attempt
// numbers and outcomes agree exactly with the Context's fault counters.
func TestSpanOutcomesMatchFaultStats(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 288
	a, b, x := spdSystem(t, rng, n)
	ctx := newCtx(t,
		exadla.WithWorkers(4), exadla.WithTileSize(48),
		exadla.WithTracing(),
		exadla.WithChaos(2016, 0.15),
		exadla.WithTaskRetry(50, 0))
	got, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatalf("SolveSPD under chaos: %v", err)
	}
	if d := maxErr(got, x, n); d > 1e-8 {
		t.Errorf("solution error %g", d)
	}

	fs := ctx.FaultStats()
	var retried, failed, attemptsAboveOne int64
	attempts := map[int]int{}
	for _, e := range ctx.TraceLog().Events() {
		switch e.Outcome {
		case trace.OutcomeRetried, trace.OutcomeCorrected:
			retried++
		case trace.OutcomeFailed:
			failed++
		}
		if e.Attempt > attempts[e.ID] {
			attempts[e.ID] = e.Attempt
		}
	}
	for _, max := range attempts {
		if max > 1 {
			attemptsAboveOne++
		}
	}

	if retried != fs.Retried {
		t.Errorf("span trace has %d retried attempts, FaultStats.Retried = %d", retried, fs.Retried)
	}
	if failed != fs.Failed {
		t.Errorf("span trace has %d failed attempts, FaultStats.Failed = %d", failed, fs.Failed)
	}
	if fs.Failed != 0 {
		t.Errorf("FaultStats.Failed = %d, want 0 with a 50-attempt budget", fs.Failed)
	}
	if retried == 0 || attemptsAboveOne == 0 {
		t.Errorf("chaos at p=0.15 injected no retries (retried=%d, multi-attempt tasks=%d)",
			retried, attemptsAboveOne)
	}
	// Retried attempts and their re-executions agree: each task with a
	// final attempt number k contributed k-1 retried attempts.
	var expectRetried int64
	for _, max := range attempts {
		expectRetried += int64(max - 1)
	}
	if retried != expectRetried {
		t.Errorf("retried spans %d != sum of (attempts-1) %d", retried, expectRetried)
	}
}

func TestWithObsServer(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n = 96
	a, b, _ := spdSystem(t, rng, n)
	ctx := newCtx(t,
		exadla.WithWorkers(2), exadla.WithTileSize(32),
		exadla.WithTracing(),
		exadla.WithObsServer("127.0.0.1:0"))
	if _, err := ctx.SolveSPD(a, b); err != nil {
		t.Fatal(err)
	}

	addr := ctx.ObsAddr()
	if addr == "" {
		t.Fatal("ObsAddr empty with WithObsServer")
	}
	for _, path := range []string{"/metrics", "/healthz", "/trace", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
			continue
		}
		switch path {
		case "/healthz":
			var h map[string]any
			if err := json.Unmarshal(body, &h); err != nil || h["status"] != "ok" {
				t.Errorf("/healthz body %q (err %v)", body, err)
			}
		case "/trace":
			var events []map[string]any
			if err := json.Unmarshal(body, &events); err != nil || len(events) == 0 {
				t.Errorf("/trace: %d events (err %v)", len(events), err)
			}
		}
	}
}

func TestWithObsServerOffByDefault(t *testing.T) {
	ctx := newCtx(t, exadla.WithWorkers(1))
	if addr := ctx.ObsAddr(); addr != "" {
		t.Errorf("ObsAddr = %q without WithObsServer", addr)
	}
}

func TestWithEventLog(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const n = 192
	a, b, _ := spdSystem(t, rng, n)
	var buf bytes.Buffer
	ctx := newCtx(t,
		exadla.WithWorkers(4), exadla.WithTileSize(48),
		exadla.WithEventLog(slog.New(slog.NewTextHandler(&buf, nil))),
		exadla.WithChaos(5, 0.2),
		exadla.WithTaskRetry(50, 0))
	if _, err := ctx.SolveSPD(a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "kind=chaos") || !strings.Contains(out, "level=WARN") {
		t.Errorf("event log missing chaos retry records:\n%.500s", out)
	}
	if !strings.Contains(out, "kernel=") || !strings.Contains(out, "attempt=") {
		t.Errorf("event log missing task identity attrs:\n%.500s", out)
	}
	if fs := ctx.FaultStats(); fs.Retried == 0 {
		t.Error("chaos injected no retries; test asserts nothing")
	}
}
