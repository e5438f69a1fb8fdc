package exadla_test

import (
	"math/rand"
	"testing"
	"time"

	"exadla"
	"exadla/internal/trace"
)

// TestHardChaosSolveSPDRecovers is the public hard-fault acceptance run:
// workers are killed and tasks hung mid-solve, the liveness watchdog
// replaces the workers and re-executes the reaped tasks, and the solve
// still lands on the right answer. The span trace must agree exactly
// with the Context's fault counters (the satellite cross-check).
func TestHardChaosSolveSPDRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n = 288
	a, b, x := spdSystem(t, rng, n)
	ctx := newCtx(t,
		exadla.WithWorkers(4), exadla.WithTileSize(48),
		exadla.WithTracing(),
		exadla.WithErasure(),
		exadla.WithTaskDeadline(300*time.Millisecond),
		exadla.WithHardChaos(82, 0.05, 0.03, 3))
	got, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatalf("SolveSPD under hard chaos: %v", err)
	}
	if d := maxErr(got, x, n); d > 1e-8 {
		t.Errorf("solution error %g", d)
	}

	fs := ctx.FaultStats()
	if fs.TimedOut < 1 || fs.TimedOut > 3 {
		t.Errorf("FaultStats.TimedOut = %d, want 1..3 (budget 3)", fs.TimedOut)
	}
	if fs.Failed != 0 {
		t.Errorf("FaultStats.Failed = %d, want 0 (generous retry budget)", fs.Failed)
	}

	var retried, timedOut, failed int64
	for _, e := range ctx.TraceLog().Events() {
		switch e.Outcome {
		case trace.OutcomeRetried, trace.OutcomeCorrected:
			retried++
		case trace.OutcomeTimedOut:
			timedOut++
		case trace.OutcomeFailed:
			failed++
		}
	}
	if timedOut != fs.TimedOut {
		t.Errorf("span trace has %d timed-out attempts, FaultStats.TimedOut = %d", timedOut, fs.TimedOut)
	}
	// Every reaped attempt was re-executed through the retry path (the
	// budget was never exhausted), so retry accounting covers soft
	// retries, corrected corruption, and watchdog timeouts together.
	if retried+timedOut != fs.Retried {
		t.Errorf("span trace has %d retried+timed-out attempts, FaultStats.Retried = %d",
			retried+timedOut, fs.Retried)
	}
	if failed != fs.Failed {
		t.Errorf("span trace has %d failed attempts, FaultStats.Failed = %d", failed, fs.Failed)
	}
}

// TestHardChaosSolveGeneral: the LU solver path under worker kills.
func TestHardChaosSolveGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n = 240
	a, b, x := spdSystem(t, rng, n)
	ctx := newCtx(t,
		exadla.WithWorkers(4), exadla.WithTileSize(48),
		exadla.WithTaskDeadline(300*time.Millisecond),
		exadla.WithHardChaos(84, 0.06, 0, 2))
	got, err := ctx.Solve(a, b)
	if err != nil {
		t.Fatalf("Solve under hard chaos: %v", err)
	}
	if d := maxErr(got, x, n); d > 1e-8 {
		t.Errorf("solution error %g", d)
	}
	if fs := ctx.FaultStats(); fs.TimedOut < 1 || fs.TimedOut > 2 {
		t.Errorf("FaultStats.TimedOut = %d, want 1..2 (budget 2)", fs.TimedOut)
	}
}

// TestWithErasureCleanSolve: erasure armed on a clean run is invisible —
// right answer, nothing detected, nothing reconstructed.
func TestWithErasureCleanSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	const n = 160
	a, b, x := spdSystem(t, rng, n)
	ctx := newCtx(t, exadla.WithErasure(), exadla.WithTileSize(48))
	got, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxErr(got, x, n); d > 1e-8 {
		t.Errorf("solution error %g", d)
	}
	fs := ctx.FaultStats()
	if fs.Detected != 0 || fs.TilesReconstructed != 0 || fs.TimedOut != 0 {
		t.Errorf("clean erasure run reported faults: %+v", fs)
	}
}
