package core_test

import (
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// These are the hard-fault acceptance tests: wholesale tile loss repaired
// by erasure reconstruction (fail-stop and checksum-detected), and full
// factorizations surviving worker kills and task hangs through the
// scheduler watchdog — in every case with a factor bitwise identical to
// the fault-free run, which is what the GF(2) parity and the pre-body
// chaos model buy.

func TestLoseTilesValidation(t *testing.T) {
	const n, nb = 96, 48
	rng := rand.New(rand.NewSource(50))
	aD := matgen.DiagDomSPD[float64](rng, n)

	a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	r := sched.New(2)
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{
		LoseTiles: []core.TileLoss{{Step: 0, I: 1, J: 0}},
	})
	if err == nil {
		t.Error("LoseTiles without Erasure accepted")
	}

	a2 := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	_, err = core.Protect(r, core.OpCholesky, a2, nil, &core.FTOptions{
		Erasure:   true,
		LoseTiles: []core.TileLoss{{Step: 0, I: 9, J: 0}},
	})
	if err == nil {
		t.Error("out-of-grid TileLoss accepted")
	}
	if _, err := core.Protect(r, core.OpLU, a2, nil, &core.FTOptions{
		LoseTiles: []core.TileLoss{{Step: 0, I: 0, J: 0}},
	}); err == nil {
		t.Error("LU LoseTiles without Erasure accepted")
	}
}

// TestResilientCholeskyErasureFailStopLoss: three finalized tiles —
// including a diagonal tile — are wiped mid-factorization and rebuilt
// fail-stop from their row parity groups before any later reader runs.
// Reconstruction is XOR subtraction over bit patterns, so the factor is
// bitwise identical to the fault-free run.
func TestResilientCholeskyErasureFailStopLoss(t *testing.T) {
	const n, nb, seed = 192, 48, 31
	aD, want := cleanCholesky(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	r := sched.New(4, sched.WithRetry(3, 0))
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{
		Erasure: true,
		Stats:   &stats,
		LoseTiles: []core.TileLoss{
			{Step: 1, I: 2, J: 0}, // panel tile, committed at step 0
			{Step: 2, I: 3, J: 1}, // panel tile, committed at step 1
			{Step: 3, I: 1, J: 1}, // diagonal tile, committed at step 1
		},
	})
	if err != nil {
		t.Fatalf("fail-stop loss run failed: %v", err)
	}
	if d := lowerDiff(n, a.ToColMajor(), want); d != 0 {
		t.Errorf("reconstructed factor differs from clean run by %g", d)
	}
	if got := stats.TilesReconstructed.Load(); got != 3 {
		t.Errorf("TilesReconstructed = %d, want 3", got)
	}
	if got := stats.Injected.Load(); got != 3 {
		t.Errorf("Injected = %d, want 3", got)
	}
}

// TestResilientCholeskySilentLossCaughtBySweep: a tile with no remaining
// readers is wiped with no fail-stop notification. The final verification
// sweep sees checksum faults across many columns — the signature of
// wholesale loss, not a flip — and routes to erasure reconstruction
// instead of per-entry correction; the retried sweep then passes.
func TestResilientCholeskySilentLossCaughtBySweep(t *testing.T) {
	const n, nb, seed = 192, 48, 31
	aD, want := cleanCholesky(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	r := sched.New(4, sched.WithRetry(3, 0))
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{
		Erasure: true,
		Stats:   &stats,
		// (2,0) is finalized at step 0 and only read by step-0 updates:
		// by step 3 it has no readers left before the sweep.
		LoseTiles: []core.TileLoss{{Step: 3, I: 2, J: 0, Silent: true}},
	})
	if err != nil {
		t.Fatalf("silent loss run failed: %v", err)
	}
	if d := lowerDiff(n, a.ToColMajor(), want); d != 0 {
		t.Errorf("reconstructed factor differs from clean run by %g", d)
	}
	if got := stats.TilesReconstructed.Load(); got != 1 {
		t.Errorf("TilesReconstructed = %d, want 1", got)
	}
	if stats.Detected.Load() == 0 {
		t.Error("silent loss was not detected")
	}
}

// TestResilientCholeskyHardChaosBitwise is the hard-fault half of the
// chaos acceptance run: worker kills and task hangs (recovered by the
// watchdog) plus fail-stop tile losses (recovered by erasure), and the
// factor still matches the clean run bit for bit.
func TestResilientCholeskyHardChaosBitwise(t *testing.T) {
	const n, nb, seed = 384, 48, 52
	aD, want := cleanCholesky(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	reg := metrics.New()
	r := sched.New(4,
		sched.WithMetrics(reg),
		sched.WithRetry(50, 0),
		sched.WithTaskDeadline(300*time.Millisecond),
		sched.WithChaos(sched.Chaos{Seed: 53, KillWorkerProb: 0.05, HangProb: 0.03, MaxFaults: 3}),
	)
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{
		Erasure: true,
		Stats:   &stats,
		LoseTiles: []core.TileLoss{
			{Step: 1, I: 2, J: 0},
			{Step: 4, I: 5, J: 2},
		},
	})
	if err != nil {
		t.Fatalf("hard-chaos run failed: %v", err)
	}
	if d := lowerDiff(n, a.ToColMajor(), want); d != 0 {
		t.Errorf("hard-chaos factor differs from clean run by %g", d)
	}
	if got := stats.TilesReconstructed.Load(); got != 2 {
		t.Errorf("TilesReconstructed = %d, want 2", got)
	}
	c := reg.Snapshot().Counters
	lost, timedOut := c["sched.workers_lost"], c["sched.tasks_timed_out"]
	if lost < 1 || lost > 3 {
		t.Errorf("workers_lost = %d, want 1..3 (budget 3)", lost)
	}
	if lost != timedOut {
		t.Errorf("workers_lost %d != tasks_timed_out %d", lost, timedOut)
	}
}

// cleanLU returns the input and the fault-free packed LU factor of the
// seeded test matrix.
func cleanLU(t *testing.T, n, nb int, seed int64) (input, factor []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	r := sched.New(4)
	defer r.Shutdown()
	if _, err := core.LU(r, a); err != nil {
		t.Fatal(err)
	}
	return aD, a.ToColMajor()
}

// TestResilientLUErasureFailStopLoss is the LU analogue of the Cholesky
// fail-stop test: tiles finalized by earlier steps of the partial-pivoting
// factorization are lost and rebuilt bitwise from row parity.
func TestResilientLUErasureFailStopLoss(t *testing.T) {
	const n, nb, seed = 192, 48, 54
	aD, want := cleanLU(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	r := sched.New(4, sched.WithRetry(3, 0))
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpLU, a, nil, &core.FTOptions{
		Erasure: true,
		Stats:   &stats,
		LoseTiles: []core.TileLoss{
			{Step: 1, I: 2, J: 0}, // sub-diagonal tile, recorded at step 0
			{Step: 2, I: 1, J: 3}, // U-row tile, recorded at step 1
		},
	})
	if err != nil {
		t.Fatalf("fail-stop loss run failed: %v", err)
	}
	if d := maxAbsDiff(a.ToColMajor(), want); d != 0 {
		t.Errorf("reconstructed LU factor differs from clean run by %g", d)
	}
	if got := stats.TilesReconstructed.Load(); got != 2 {
		t.Errorf("TilesReconstructed = %d, want 2", got)
	}
}

// TestResilientLUSilentLossCaughtBySweep: a finalized LU tile with no
// remaining readers is silently zeroed; the final sweep detects the
// multi-column fault pattern and reconstructs it.
func TestResilientLUSilentLossCaughtBySweep(t *testing.T) {
	const n, nb, seed = 192, 48, 55
	aD, want := cleanLU(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	r := sched.New(4, sched.WithRetry(3, 0))
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpLU, a, nil, &core.FTOptions{
		Erasure: true,
		Stats:   &stats,
		// (3,0) is finalized by the step-0 panel and last read by step 0's
		// trailing update: later interchanges never reach left of their
		// panel.
		LoseTiles: []core.TileLoss{{Step: 2, I: 3, J: 0, Silent: true}},
	})
	if err != nil {
		t.Fatalf("silent loss run failed: %v", err)
	}
	if d := maxAbsDiff(a.ToColMajor(), want); d != 0 {
		t.Errorf("reconstructed LU factor differs from clean run by %g", d)
	}
	if got := stats.TilesReconstructed.Load(); got != 1 {
		t.Errorf("TilesReconstructed = %d, want 1", got)
	}
	if stats.Detected.Load() == 0 {
		t.Error("silent loss was not detected")
	}
}

// TestSilentLossBeforeCheckpointRefused: a silent loss is rebuilt only by
// the final verification sweep, so a checkpoint taken between the loss and
// the sweep would persist the zeroed tile, and a resume would certify it.
// The walk refuses such a schedule before it writes anything.
func TestSilentLossBeforeCheckpointRefused(t *testing.T) {
	const n, nb, seed = 192, 48, 55
	aD, _ := cleanLU(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	dir := t.TempDir()
	r := sched.New(2, sched.WithRetry(3, 0))
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpLU, a, &core.CkptOptions{Dir: dir, Every: 1, AbortAtStep: 2}, &core.FTOptions{
		Erasure:   true,
		Stats:     &ft.Stats{},
		LoseTiles: []core.TileLoss{{Step: 2, I: 3, J: 0, Silent: true}},
	})
	if err == nil || errors.Is(err, core.ErrAborted) || !strings.Contains(err.Error(), "tile (3,0) at step 2") {
		t.Fatalf("err = %v, want a refusal naming the silent loss of tile (3,0) at step 2", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("refused run wrote %d checkpoint files", len(ents))
	}
}

// TestResilientLUHardChaosBitwise: the LU half of the hard-fault chaos
// acceptance run — worker kills, task hangs, and a fail-stop tile loss,
// with a bitwise-identical packed factor.
func TestResilientLUHardChaosBitwise(t *testing.T) {
	const n, nb, seed = 384, 48, 56
	aD, want := cleanLU(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	reg := metrics.New()
	r := sched.New(4,
		sched.WithMetrics(reg),
		sched.WithRetry(50, 0),
		sched.WithTaskDeadline(300*time.Millisecond),
		sched.WithChaos(sched.Chaos{Seed: 57, KillWorkerProb: 0.04, HangProb: 0.02, MaxFaults: 3}),
	)
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpLU, a, nil, &core.FTOptions{
		Erasure:   true,
		Stats:     &stats,
		LoseTiles: []core.TileLoss{{Step: 2, I: 4, J: 1}},
	})
	if err != nil {
		t.Fatalf("hard-chaos run failed: %v", err)
	}
	if d := maxAbsDiff(a.ToColMajor(), want); d != 0 {
		t.Errorf("hard-chaos LU factor differs from clean run by %g", d)
	}
	if got := stats.TilesReconstructed.Load(); got != 1 {
		t.Errorf("TilesReconstructed = %d, want 1", got)
	}
	c := reg.Snapshot().Counters
	lost := c["sched.workers_lost"]
	if lost < 1 || lost > 3 {
		t.Errorf("workers_lost = %d, want 1..3 (budget 3)", lost)
	}
}
